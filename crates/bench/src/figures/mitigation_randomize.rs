//! The paper's proposed mitigation (§1, §4.2): "randomizing the issue of
//! memory refresh commands would be compatible with existing DRAM
//! standards and would greatly reduce the modulation of refresh activity."
//! Measure the refresh comb and FASE's detection before and after.

use crate::{paper_campaign, print_table, write_csv};
use fase_core::{evaluate_mitigation, Fase, FaseReport};
use fase_dsp::Hertz;
use fase_emsim::SimulatedSystem;
use fase_specan::{run_campaign_with_options, CampaignOptions};
use fase_sysmodel::ActivityPair;

fn measure(make: impl Fn() -> SimulatedSystem + Sync, seed: u64) -> (f64, usize, FaseReport) {
    let (lo, hi) = (Hertz::from_khz(100.0), Hertz::from_mhz(2.0));
    let config = paper_campaign(lo, hi, Hertz(100.0), 4);
    let spectra = run_campaign_with_options(
        &config,
        ActivityPair::LdmLdl1,
        |_| make(),
        seed,
        CampaignOptions::default(),
    )
    .expect("campaign");
    // Idle-side refresh comb strength: strongest refresh harmonic.
    let mean = spectra.mean_spectrum();
    let comb_dbm = (1..=15)
        .filter_map(|k| mean.sample(Hertz(128_000.0 * k as f64)))
        .map(|p| 10.0 * p.log10())
        .fold(f64::NEG_INFINITY, f64::max);
    // How many refresh-family carriers does FASE still find?
    let report = Fase::default().analyze(&spectra).expect("analysis");
    let refresh_carriers = report
        .carriers()
        .iter()
        .filter(|c| {
            let k = (c.frequency().hz() / 128_000.0).round().max(1.0);
            (c.frequency().hz() - k * 128_000.0).abs() < 1_500.0
        })
        .count();
    (comb_dbm, refresh_carriers, report)
}

pub fn run() -> bool {
    let (base_dbm, base_found, base_report) =
        measure(|| SimulatedSystem::intel_i7_desktop(42), 230);
    let (mit_dbm, mit_found, mit_report) =
        measure(|| SimulatedSystem::intel_i7_mitigated(42, 0.45), 231);

    print_table(
        "refresh-randomization mitigation (LDM/LDL1 campaign)",
        &[
            "controller",
            "strongest refresh harmonic",
            "refresh carriers FASE finds",
        ],
        &[
            vec![
                "standard DDR3".into(),
                format!("{base_dbm:.1} dBm"),
                base_found.to_string(),
            ],
            vec![
                "randomized issue".into(),
                format!("{mit_dbm:.1} dBm"),
                mit_found.to_string(),
            ],
        ],
    );
    println!(
        "\ncomb suppression: {:.1} dB; detections {} -> {}",
        base_dbm - mit_dbm,
        base_found,
        mit_found
    );
    let outcome = evaluate_mitigation(&base_report, &mit_report, fase_dsp::Hertz(1_500.0));
    println!("\n{outcome}");
    // The mitigated comb disappears into the noise floor, so the measured
    // suppression is floor-limited.
    assert!(
        mit_dbm < base_dbm - 4.0,
        "mitigation should suppress the comb by >4 dB"
    );
    assert!(
        mit_found < base_found,
        "mitigation should reduce FASE detections"
    );
    println!("PASS: randomized refresh suppresses the comb and removes FASE detections.");
    write_csv(
        "mitigation_randomize.csv",
        "controller,comb_dbm,refresh_carriers",
        [
            format!("standard,{base_dbm:.2},{base_found}"),
            format!("randomized,{mit_dbm:.2},{mit_found}"),
        ],
    );
    true
}
