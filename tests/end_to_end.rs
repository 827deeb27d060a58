//! Cross-crate integration tests: the full pipeline from micro-benchmark
//! execution through EM rendering, capture, and FASE analysis.

use fase::prelude::*;
use fase_core::heuristic::campaign_from_spectra;
use fase_core::LabeledSpectrum;

fn narrow_campaign() -> CampaignConfig {
    CampaignConfig::builder()
        .band(Hertz::from_khz(250.0), Hertz::from_khz(400.0))
        .resolution(Hertz(200.0))
        .alternation(Hertz::from_khz(30.0), Hertz::from_khz(2.0), 5)
        .averages(3)
        .build()
        .expect("valid campaign")
}

/// The paper's i7 desktop, as a capture-task factory.
fn i7(_: usize) -> SimulatedSystem {
    SimulatedSystem::intel_i7_desktop(42)
}

/// Runs `config` with `pair` on the capture-task pool.
fn run(
    config: &CampaignConfig,
    pair: ActivityPair,
    factory: fn(usize) -> SimulatedSystem,
    seed: u64,
) -> CampaignSpectra {
    run_campaign_with_options(config, pair, factory, seed, CampaignOptions::default())
        .expect("campaign")
}

#[test]
fn memory_pair_finds_dram_regulator() {
    let spectra = run(&narrow_campaign(), ActivityPair::LdmLdl1, i7, 1);
    let report = Fase::default().analyze(&spectra).expect("analysis");
    let carrier = report
        .carrier_near(Hertz::from_khz(315.66), Hertz::from_khz(2.0))
        .expect("DRAM regulator detected");
    assert!(carrier.has_harmonic(1) && carrier.has_harmonic(-1));
    // Side-bands sit below the carrier by a plausible modulation depth.
    let depth = carrier.modulation_depth().db();
    assert!((5.0..40.0).contains(&depth), "modulation depth {depth} dB");
}

#[test]
fn stm_pair_finds_the_same_memory_carrier() {
    // §3: STM (write-back) pairings expose the same carriers as LDM ones.
    let spectra = run(&narrow_campaign(), ActivityPair::StmLdl1, i7, 10);
    let report = Fase::default().analyze(&spectra).expect("analysis");
    assert!(
        report
            .carrier_near(Hertz::from_khz(315.66), Hertz::from_khz(2.0))
            .is_some(),
        "{report}"
    );
}

#[test]
fn ldm_add_pair_finds_the_same_memory_carrier() {
    // §3: "LDM/ADD, LDM/DIV, etc." expose the same carriers as LDM/LDL1.
    let spectra = run(&narrow_campaign(), ActivityPair::LdmAdd, i7, 13);
    let report = Fase::default().analyze(&spectra).expect("analysis");
    assert!(
        report
            .carrier_near(Hertz::from_khz(315.66), Hertz::from_khz(2.0))
            .is_some(),
        "{report}"
    );
}

#[test]
fn control_pair_finds_nothing() {
    // LDL1/LDL1 alternates between identical activities: no domain's load
    // changes at f_alt, so nothing may be reported.
    let spectra = run(&narrow_campaign(), ActivityPair::Ldl1Ldl1, i7, 2);
    let report = Fase::default().analyze(&spectra).expect("analysis");
    assert!(report.is_empty(), "control campaign reported: {report}");
}

#[test]
fn classification_separates_memory_from_core() {
    let analyze_pair = |pair: ActivityPair, seed: u64| {
        let spectra = run(&narrow_campaign(), pair, i7, seed);
        Fase::default().analyze(&spectra).expect("analysis")
    };
    let memory = analyze_pair(ActivityPair::LdmLdl1, 3);
    let onchip = analyze_pair(ActivityPair::Ldl2Ldl1, 4);
    let classified = classify_by_pairs(&memory, &onchip, Hertz::from_khz(2.0));
    let class_of = |f: f64| {
        classified
            .iter()
            .find(|c| (c.carrier.frequency().hz() - f).abs() < 2_000.0)
            .map(|c| c.class)
    };
    assert_eq!(class_of(315_660.0), Some(ModulationClass::MemoryRelated));
    assert_eq!(class_of(332_530.0), Some(ModulationClass::OnChipRelated));
}

#[test]
fn am_radio_band_is_rejected() {
    let system = SimulatedSystem::intel_i7_desktop(42);
    let stations: Vec<Hertz> = system
        .scene
        .ground_truth()
        .iter()
        .filter(|s| s.kind == fase::emsim::SourceKind::AmBroadcast)
        .map(|s| s.fundamental)
        .collect();
    assert!(stations.len() >= 5);
    let campaign = CampaignConfig::builder()
        .band(Hertz::from_khz(560.0), Hertz::from_khz(1_200.0))
        .resolution(Hertz(200.0))
        .alternation(Hertz::from_khz(43.3), Hertz(500.0), 5)
        .averages(2)
        .build()
        .expect("valid campaign");
    let spectra = run(&campaign, ActivityPair::LdmLdl1, i7, 5);
    let report = Fase::default().analyze(&spectra).expect("analysis");
    for s in stations {
        assert!(
            report.carrier_near(s, Hertz::from_khz(5.0)).is_none(),
            "station at {s} was flagged"
        );
    }
}

#[test]
fn fm_regulator_not_reported_on_laptop() {
    let campaign = CampaignConfig::builder()
        .band(Hertz::from_khz(250.0), Hertz::from_khz(430.0))
        .resolution(Hertz(200.0))
        .alternation(Hertz::from_khz(30.0), Hertz::from_khz(2.0), 5)
        .averages(3)
        .build()
        .expect("valid campaign");
    let spectra = run(
        &campaign,
        ActivityPair::LdmLdl1,
        |_| SimulatedSystem::amd_turion_laptop(2007),
        6,
    );
    let report = Fase::default().analyze(&spectra).expect("analysis");
    // The AM memory regulator at ~389 kHz is found…
    assert!(
        report
            .carrier_near(Hertz::from_khz(389.14), Hertz::from_khz(2.0))
            .is_some(),
        "{report}"
    );
    // …the FM core regulator at ~281 kHz is not.
    assert!(
        report
            .carrier_near(Hertz::from_khz(280.87), Hertz::from_khz(4.0))
            .is_none(),
        "FM carrier wrongly reported: {report}"
    );
}

#[test]
fn detection_is_insensitive_to_antenna_response() {
    // Eq. (2) compares the same frequency across measurements, so any
    // smooth antenna response cancels out of the sub-scores. The response
    // here is an AOR LA400-style magnetic loop: the series-RLC voltage
    // response |H| = x / sqrt((1 − x²)² + (x/Q)²), x = f/f0, resonant at
    // f0 = 2 MHz with Q = 2, as power gain normalized to 1 at its peak.
    let loop_gain = |f: Hertz| {
        let (x, q) = (f.hz() / 2.0e6, 2.0);
        x * x / ((1.0 - x * x).powi(2) + (x / q).powi(2)) / (q * q)
    };
    let flat = run(&narrow_campaign(), ActivityPair::LdmLdl1, i7, 12);
    let shaped = flat
        .spectra()
        .iter()
        .map(|s| LabeledSpectrum {
            f_alt: s.f_alt,
            spectrum: Spectrum::new(
                s.spectrum.start(),
                s.spectrum.resolution(),
                s.spectrum.iter().map(|(f, p)| p * loop_gain(f)).collect(),
            )
            .expect("shaped spectrum"),
        })
        .collect();
    let spectra = CampaignSpectra::new(narrow_campaign(), shaped).expect("spectra");
    let report = Fase::default().analyze(&spectra).expect("analysis");
    assert!(
        report
            .carrier_near(Hertz::from_khz(315.66), Hertz::from_khz(2.0))
            .is_some(),
        "{report}"
    );
}

#[test]
fn refresh_mitigation_removes_comb() {
    // One idle-memory spectrum at f_alt = 30 kHz around the refresh line.
    let config = CampaignConfig::builder()
        .band(Hertz::from_khz(120.0), Hertz::from_khz(136.0))
        .resolution(Hertz(100.0))
        .alternation(Hertz::from_khz(30.0), Hertz::from_khz(2.0), 5)
        .averages(3)
        .build()
        .expect("valid campaign");
    let comb_level = |factory: fn(usize) -> SimulatedSystem, seed: u64| -> f64 {
        let s = measure_alternation(
            &config,
            0,
            ActivityPair::Ldl1Ldl1,
            factory,
            seed,
            CampaignOptions::default(),
        )
        .expect("capture")
        .spectrum;
        s.sample(Hertz(128_000.0)).expect("in band")
    };
    let standard = comb_level(i7, 7);
    let mitigated = comb_level(|_| SimulatedSystem::intel_i7_mitigated(42, 0.45), 8);
    assert!(
        standard > 4.0 * mitigated,
        "mitigation should suppress the idle comb: {standard} vs {mitigated}"
    );
}

#[test]
fn segmented_sweep_matches_single_segment() {
    // Force the sweep planner to tile the band from many small FFT
    // segments; the stitched spectrum must sit on the same grid and the
    // detection result must not change.
    let config = narrow_campaign();
    let run_capped = |max_fft: usize, seed: u64| {
        let options = CampaignOptions {
            max_fft,
            ..CampaignOptions::default()
        };
        run_campaign_with_options(&config, ActivityPair::LdmLdl1, i7, seed, options)
            .expect("campaign")
    };
    let single = run_capped(1 << 12, 11);
    let tiled = run_capped(1 << 8, 11);
    assert!(single.spectrum(0).same_grid(tiled.spectrum(0)));
    let report_single = Fase::default().analyze(&single).expect("analysis");
    let report_tiled = Fase::default().analyze(&tiled).expect("analysis");
    for report in [&report_single, &report_tiled] {
        assert!(
            report
                .carrier_near(Hertz::from_khz(315.66), Hertz::from_khz(2.0))
                .is_some(),
            "{report}"
        );
    }
}

#[test]
fn campaign_determinism() {
    let run_once = || {
        let config = CampaignConfig::builder()
            .band(Hertz::from_khz(300.0), Hertz::from_khz(330.0))
            .resolution(Hertz(500.0))
            .alternation(Hertz::from_khz(30.0), Hertz::from_khz(2.0), 2)
            .averages(1)
            .build()
            .expect("valid campaign");
        run(&config, ActivityPair::LdmLdl1, i7, 9)
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a.spectra().len(), b.spectra().len());
    for (x, y) in a.spectra().iter().zip(b.spectra()) {
        assert_eq!(x.f_alt, y.f_alt);
        assert_eq!(
            x.spectrum.powers(),
            y.spectrum.powers(),
            "simulation must be deterministic"
        );
    }
}

#[test]
fn fase_is_measurement_agnostic() {
    // Hand-built spectra (no simulator at all) flow through the same API.
    let config = CampaignConfig::builder()
        .band(Hertz(0.0), Hertz(100_000.0))
        .resolution(Hertz(100.0))
        .alternation(Hertz(20_000.0), Hertz(500.0), 5)
        .build()
        .expect("valid campaign");
    let spectra: Vec<Spectrum> = config
        .alternation_frequencies()
        .iter()
        .map(|f_alt| {
            let mut p = vec![1e-14; config.bins()];
            p[500] = 1e-10;
            p[500 + (f_alt.hz() / 100.0) as usize] = 2e-12;
            p[500 - (f_alt.hz() / 100.0) as usize] = 2e-12;
            Spectrum::new(Hertz(0.0), Hertz(100.0), p).expect("spectrum")
        })
        .collect();
    let campaign = campaign_from_spectra(config, spectra).expect("campaign");
    let report = Fase::default().analyze(&campaign).expect("analysis");
    assert_eq!(report.len(), 1);
}
