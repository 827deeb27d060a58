//! Baseline comparison (§2.3, §5): the naive 2·f_alt pair finder and a
//! generic AM classifier versus FASE, on the same captured spectra, scored
//! against scene ground truth.

use fase_baseline::{classify_am, find_pairs, AmcConfig, PairFinderConfig};
use fase_bench::print_table;
use fase_core::{CampaignConfig, Fase};
use fase_dsp::Hertz;
use fase_emsim::{SimulatedSystem, SourceKind};
use fase_specan::{run_campaign_with_options, CampaignOptions};
use fase_sysmodel::ActivityPair;

fn main() {
    let system = SimulatedSystem::intel_i7_desktop(42);
    let truth = system.scene.ground_truth();
    let config = CampaignConfig::builder()
        .band(Hertz::from_khz(60.0), Hertz::from_mhz(2.0))
        .resolution(Hertz(100.0))
        .alternation(Hertz::from_khz(43.3), Hertz(500.0), 5)
        .averages(4)
        .build()
        .expect("config");
    let spectra = run_campaign_with_options(
        &config,
        ActivityPair::LdmLdl1,
        |_| SimulatedSystem::intel_i7_desktop(42),
        210,
        CampaignOptions::default(),
    )
    .expect("campaign");

    // Ground truth: frequencies genuinely modulated by memory activity
    // (any harmonic of a memory-domain source counts as a hit).
    let modulated_bases: Vec<f64> = truth
        .iter()
        .filter(|s| {
            s.modulated_by.is_some()
                && matches!(
                    s.kind,
                    SourceKind::SwitchingRegulator | SourceKind::MemoryRefresh
                )
                && s.modulated_by != Some(fase_sysmodel::Domain::Core)
        })
        .map(|s| s.fundamental.hz())
        .collect();
    let is_genuine = |f: Hertz| {
        modulated_bases.iter().any(|&base| {
            let k = (f.hz() / base).round().max(1.0);
            (f.hz() - k * base).abs() < 1_500.0 && k <= 32.0
        })
    };

    // FASE.
    let report = Fase::default().analyze(&spectra).expect("analysis");
    let fase_hits = report
        .carriers()
        .iter()
        .filter(|c| is_genuine(c.frequency()))
        .count();
    let fase_fp = report.len() - fase_hits;

    // Naive pair finder on the f_alt1 spectrum.
    let s0 = spectra.spectrum(0);
    let f_alt1 = spectra.spectra()[0].f_alt;
    let pairs = find_pairs(s0, f_alt1, &PairFinderConfig::default());
    let pair_hits = pairs.iter().filter(|d| is_genuine(d.carrier)).count();
    let pair_fp = pairs.len() - pair_hits;

    // Generic AM classifier on the same spectrum.
    let amc = classify_am(s0, &AmcConfig::default());
    let amc_hits = amc.iter().filter(|d| is_genuine(d.carrier)).count();
    let amc_fp = amc.len() - amc_hits;

    let rows = vec![
        vec![
            "FASE (5 x f_alt campaign)".into(),
            report.len().to_string(),
            fase_hits.to_string(),
            fase_fp.to_string(),
        ],
        vec![
            "naive 2·f_alt pair finder".into(),
            pairs.len().to_string(),
            pair_hits.to_string(),
            pair_fp.to_string(),
        ],
        vec![
            "generic AM classifier".into(),
            amc.len().to_string(),
            amc_hits.to_string(),
            amc_fp.to_string(),
        ],
    ];
    print_table(
        "detector comparison (i7, LDM/LDL1, 60 kHz - 2 MHz)",
        &["method", "reported", "genuine", "false positives"],
        &rows,
    );
    println!(
        "\nFASE false positives: {fase_fp}; baseline false positives: {} / {}",
        pair_fp, amc_fp
    );
    assert_eq!(fase_fp, 0, "FASE reported a false carrier");
    assert!(
        pair_fp > 0 || amc_fp > 0,
        "baselines were expected to misfire"
    );
    println!("PASS: FASE clean; baselines misfire as the paper describes.");
}
