//! Figure 16: the heuristic detects the modulated spread-spectrum clock,
//! reporting it "as two separate carriers at the edges of the spread out
//! clock signal".

use crate::experiment::{near, Expect::Is, GroundTruth};
use crate::{ascii_plot, claims, run_i7, ss_clock_campaign, write_csv};
use fase_core::heuristic::harmonic_scores;
use fase_core::{Fase, FaseConfig};
use fase_sysmodel::ActivityPair;

pub fn run() -> bool {
    let spectra = run_i7(&ss_clock_campaign(), ActivityPair::LdmLdl1, 160);
    // A spread carrier is only "uncovered" at a sweep edge by the largest
    // one or two alternation frequencies, and each edge appears in a
    // single harmonic sign (+1 at the upper edge, -1 at the lower). The
    // paper likewise notes spread-spectrum clocks need specially chosen
    // parameters (§4.3); relax the narrowband evidence requirements.
    let fase_config = FaseConfig {
        detector: fase_core::detector::DetectorConfig {
            min_harmonics: 1,
            min_support: 2,
            single_harmonic_min_support: 2,
            max_sideband_excess_db: 10.0,
            ..Default::default()
        },
        ..FaseConfig::default()
    };
    let report = Fase::new(fase_config).analyze(&spectra).expect("analysis");

    let plus = harmonic_scores(&spectra, 1, &fase_config.heuristic);
    let xs: Vec<f64> = (0..plus.len()).map(|b| plus.frequency_at(b).hz()).collect();
    let logs: Vec<f64> = plus.scores().iter().map(|s| s.log10()).collect();
    ascii_plot(
        "Figure 16: log10 F_{+1}(f) across the spread clock (Hz)",
        &xs,
        &logs,
        100,
        10,
    );

    println!("\ncarriers reported:");
    for c in report.carriers() {
        println!("  {c}");
    }
    let edges = claims![
        "carrier near 332.7 MHz sweep edge" => near(332.7e6, 150e3), Is(true);
        "carrier near 333.0 MHz sweep edge" => near(333.0e6, 150e3), Is(true);
    ];
    println!();
    let truth = GroundTruth::default();
    let held = edges.iter().filter(|c| c.check(&report, &truth)).count();
    println!("  (paper: the clock is reported as two carriers at the sweep edges)");

    let minus = harmonic_scores(&spectra, -1, &fase_config.heuristic);
    write_csv(
        "fig16_ss_heuristic.csv",
        "frequency_hz,f_plus1,f_minus1",
        (0..plus.len()).map(|b| {
            format!(
                "{:.1},{:.5},{:.5}",
                plus.frequency_at(b).hz(),
                plus.scores()[b],
                minus.scores()[b]
            )
        }),
    );
    held == edges.len()
}
