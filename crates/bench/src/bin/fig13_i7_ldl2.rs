//! Figure 13: FASE results for the Intel Core i7 desktop with the L2-cache
//! (LDL2/LDL1) modulating activity, over the paper's 0–4 MHz campaign.
//!
//! Expected: only the CPU core regulator family (332 kHz) is reported —
//! "Only one type of carrier was found to be modulated in this case".

use fase_bench::{fmt_freq, print_table, write_csv};
use fase_core::{CampaignConfig, Fase};
use fase_dsp::Hertz;
use fase_emsim::SimulatedSystem;
use fase_sysmodel::ActivityPair;

fn main() {
    let config = CampaignConfig::paper_0_4mhz();
    println!("running {config} (pooled capture tasks)…");
    let spectra = fase_specan::run_campaign_with_options(
        &config,
        ActivityPair::Ldl2Ldl1,
        |_| SimulatedSystem::intel_i7_desktop(42),
        130,
        fase_specan::CampaignOptions::default(),
    )
    .expect("campaign");
    let report = Fase::default().analyze(&spectra).expect("analysis");

    let rows: Vec<Vec<String>> = report
        .harmonic_sets()
        .iter()
        .flat_map(|set| {
            set.members().iter().map(move |c| {
                vec![
                    fmt_freq(set.fundamental()),
                    fmt_freq(c.frequency()),
                    format!("{}", c.magnitude()),
                    format!("{}", c.sideband_magnitude()),
                ]
            })
        })
        .collect();
    print_table(
        "Figure 13: carriers reported by FASE (LDL2/LDL1)",
        &["set fundamental", "carrier", "magnitude", "side-bands"],
        &rows,
    );

    let near = |f: f64, tol: f64| report.carrier_near(Hertz(f), Hertz(tol)).is_some();
    let core_found = (1..=4).any(|k| near(332_000.0 * k as f64, 2_500.0));
    let memory_regs = near(315_000.0, 2_000.0) || near(525_000.0, 2_000.0);
    println!("\n  core regulator family found: {core_found} ✓(expected true)");
    println!("  memory regulators reported: {memory_regs} (expected false)");
    println!(
        "  total carriers: {} (paper: only the core regulator's harmonics)",
        report.len()
    );

    write_csv(
        "fig13_carriers.csv",
        "fundamental_hz,carrier_hz,magnitude_dbm,sideband_dbm",
        report.harmonic_sets().iter().flat_map(|set| {
            set.members().iter().map(move |c| {
                format!(
                    "{:.1},{:.1},{:.2},{:.2}",
                    set.fundamental().hz(),
                    c.frequency().hz(),
                    c.magnitude().dbm(),
                    c.sideband_magnitude().dbm()
                )
            })
        }),
    );
}
