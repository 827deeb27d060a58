//! The machine-profiling memo outlives the capture pool: a second
//! campaign, run on freshly spawned workers, replays every pointer-chase
//! profile from the process-wide memo and still captures the same bits.
//!
//! This file holds a single test so that no other test in the process
//! touches the global `sysmodel.profile_memo_*` counters while it runs.

use fase_core::CampaignConfig;
use fase_dsp::Hertz;
use fase_emsim::SimulatedSystem;
use fase_specan::{run_campaign_with_options, CampaignOptions};
use fase_sysmodel::ActivityPair;

fn counter(name: &str) -> u64 {
    fase_obs::snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

#[test]
fn second_campaign_replays_every_profile_on_fresh_workers() {
    fase_obs::enable();
    let config = CampaignConfig::builder()
        .band(Hertz::from_khz(250.0), Hertz::from_khz(400.0))
        .resolution(Hertz(200.0))
        .alternation(Hertz::from_khz(30.0), Hertz(2_000.0), 5)
        .averages(2)
        .build()
        .unwrap();
    let run = || {
        run_campaign_with_options(
            &config,
            ActivityPair::LdmLdl1,
            |_| {
                let mut system = SimulatedSystem::intel_i7_desktop(6);
                system.machine = fase_sysmodel::Machine::core_i7();
                system
            },
            77,
            CampaignOptions {
                threads: Some(2),
                max_fft: 1 << 12,
                ..CampaignOptions::default()
            },
        )
        .unwrap()
    };

    let first = run();
    let misses = counter("sysmodel.profile_memo_misses");
    let hits = counter("sysmodel.profile_memo_hits");
    assert!(misses >= 1, "the first campaign must run the pointer chase");

    let second = run();
    assert_eq!(
        counter("sysmodel.profile_memo_misses"),
        misses,
        "the second campaign re-ran the pointer chase on its new workers"
    );
    assert!(counter("sysmodel.profile_memo_hits") > hits);

    assert_eq!(first.len(), second.len());
    for (a, b) in first.spectra().iter().zip(second.spectra()) {
        let bits = |s: &fase_dsp::Spectrum| -> Vec<u64> {
            s.powers().iter().map(|p| p.to_bits()).collect()
        };
        assert_eq!(bits(&a.spectrum), bits(&b.spectrum));
    }
    assert_eq!(first, second);
}
