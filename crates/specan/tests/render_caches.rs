//! The render memos and the FFT plan cache outlive the capture pool: a
//! second campaign of the same scene, run on a different number of freshly
//! spawned workers, plans no transform and renders no memoized
//! intermediate anew, and still captures the same bits.
//!
//! This file holds a single test so that no other test in the process
//! touches the global `emsim.memo_*` and `dsp.plan_cache_*` counters while
//! it runs.

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
fn second_campaign_misses_no_render_memo_or_plan_on_fresh_workers() {
    fase_obs::enable();
    let config = CampaignConfig::builder()
        .band(Hertz::from_khz(250.0), Hertz::from_khz(400.0))
        .resolution(Hertz(200.0))
        .alternation(Hertz::from_khz(30.0), Hertz(2_000.0), 5)
        .averages(2)
        .build()
        .unwrap();
    let run = |threads: usize| {
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
                threads: Some(threads),
                max_fft: 1 << 12,
                ..CampaignOptions::default()
            },
        )
        .unwrap()
    };

    let first = run(1);
    let memo_misses = counter("emsim.memo_misses");
    let plan_misses = counter("dsp.plan_cache_misses");
    let memo_hits = counter("emsim.memo_hits");
    let plan_hits = counter("dsp.plan_cache_hits");
    assert!(memo_misses >= 1, "the first campaign must fill the memos");
    assert!(plan_misses >= 1, "the first campaign must plan its FFT");

    let second = run(2);
    assert_eq!(
        counter("emsim.memo_misses"),
        memo_misses,
        "the second campaign re-rendered a memoized intermediate"
    );
    assert_eq!(
        counter("dsp.plan_cache_misses"),
        plan_misses,
        "the second campaign re-planned an FFT"
    );
    assert!(counter("emsim.memo_hits") > memo_hits);
    assert!(counter("dsp.plan_cache_hits") > plan_hits);

    assert_eq!(first.len(), second.len());
    for (a, b) in first.spectra().iter().zip(second.spectra()) {
        let bits = |s: &fase_dsp::Spectrum| -> Vec<u64> {
            s.powers().iter().map(|p| p.to_bits()).collect()
        };
        assert_eq!(bits(&a.spectrum), bits(&b.spectrum));
    }
    assert_eq!(first, second);
}
