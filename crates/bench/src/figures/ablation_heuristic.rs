//! Ablation study: which parts of the FASE detector design actually buy
//! the detection quality? Vary one knob at a time on the same wide-band
//! scene and tabulate (a) how many genuine modulated-carrier families are
//! found and (b) how many false carriers appear.
//!
//! Knobs: the heuristic's windowed-max search, the multi-spectrum support
//! gate, the first-harmonic requirement, and the side-band-excess filter.

use crate::{near_harmonic, paper_campaign, print_table, run_i7, I7_MEMORY_FAMILIES};
use fase_core::detector::DetectorConfig;
use fase_core::{Fase, FaseConfig, FaseReport, HeuristicConfig};
use fase_dsp::Hertz;
use fase_sysmodel::ActivityPair;

struct Variant {
    name: &'static str,
    search_bins: usize,
    min_support: usize,
    require_first: bool,
    max_sideband_excess_db: f64,
}

fn score(report: &FaseReport) -> (usize, usize) {
    // Genuine memory-modulated families on the i7 under LDM/LDL1.
    let is_genuine = |f: f64| near_harmonic(&I7_MEMORY_FAMILIES, f, 1_500.0);
    let genuine = report
        .carriers()
        .iter()
        .filter(|c| is_genuine(c.frequency().hz()))
        .count();
    let false_carriers = report.len() - genuine;
    (genuine, false_carriers)
}

pub fn run() -> bool {
    let config = paper_campaign(Hertz::from_khz(60.0), Hertz::from_mhz(2.0), Hertz(100.0), 4);
    // One shared campaign: the ablations differ only in analysis.
    let spectra = run_i7(&config, ActivityPair::LdmLdl1, 810);

    let variants = [
        Variant {
            name: "full detector (defaults)",
            search_bins: 3,
            min_support: 3,
            require_first: true,
            max_sideband_excess_db: 3.0,
        },
        Variant {
            name: "no windowed-max search",
            search_bins: 0,
            min_support: 3,
            require_first: true,
            max_sideband_excess_db: 3.0,
        },
        Variant {
            name: "no support gate",
            search_bins: 3,
            min_support: 1,
            require_first: true,
            max_sideband_excess_db: 3.0,
        },
        Variant {
            name: "no first-harmonic requirement",
            search_bins: 3,
            min_support: 3,
            require_first: false,
            max_sideband_excess_db: 3.0,
        },
        Variant {
            name: "no side-band-excess filter",
            search_bins: 3,
            min_support: 3,
            require_first: true,
            max_sideband_excess_db: 1e9,
        },
        Variant {
            name: "everything off",
            search_bins: 0,
            min_support: 1,
            require_first: false,
            max_sideband_excess_db: 1e9,
        },
    ];
    let mut rows = Vec::new();
    let mut results = Vec::new();
    for v in &variants {
        let fase = Fase::new(FaseConfig {
            heuristic: HeuristicConfig {
                search_bins: v.search_bins,
            },
            detector: DetectorConfig {
                min_support: v.min_support,
                require_first_harmonic: v.require_first,
                max_sideband_excess_db: v.max_sideband_excess_db,
                ..Default::default()
            },
        });
        let report = fase.analyze(&spectra).expect("analysis");
        let (genuine, false_carriers) = score(&report);
        results.push((genuine, false_carriers));
        rows.push(vec![
            v.name.to_owned(),
            genuine.to_string(),
            false_carriers.to_string(),
        ]);
    }
    print_table(
        "detector ablations (i7, 60 kHz - 2 MHz, LDM/LDL1, shared spectra)",
        &["variant", "genuine carriers", "false carriers"],
        &rows,
    );
    let (base_genuine, base_false) = results[0];
    assert!(
        base_genuine >= 3,
        "baseline must find the modulated families"
    );
    assert_eq!(base_false, 0, "baseline must be clean");
    let worst_false = results.iter().map(|r| r.1).max().unwrap();
    println!(
        "\nbaseline: {base_genuine} genuine / 0 false; weakest ablation admits {worst_false} false carriers."
    );
    if worst_false > 0 {
        println!("The safeguards earn their keep: removing them admits false carriers.");
    }
    true
}
