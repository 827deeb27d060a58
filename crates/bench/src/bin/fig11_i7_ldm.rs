//! Figure 11: FASE results for the Intel Core i7 desktop with the
//! main-memory (LDM/LDL1) modulating activity, over the paper's full
//! 0–4 MHz / 50 Hz campaign.
//!
//! Expected: the DRAM memory regulator family (315 kHz harmonics), the
//! memory-interface regulator family (525 kHz harmonics) and the memory
//! refresh family (multiples of 128 kHz) are reported; AM broadcast
//! stations, the unmodulated spur forest and the core regulator are not.

use fase_bench::{fmt_freq, plot_spectrum, print_table, write_csv, write_spectra_csv};
use fase_core::{CampaignConfig, Fase};
use fase_dsp::Hertz;
use fase_emsim::SimulatedSystem;
use fase_sysmodel::ActivityPair;

fn main() {
    let system = SimulatedSystem::intel_i7_desktop(42);
    let stations: Vec<Hertz> = system
        .scene
        .ground_truth()
        .iter()
        .filter(|s| s.kind == fase_emsim::SourceKind::AmBroadcast)
        .map(|s| s.fundamental)
        .collect();
    let config = CampaignConfig::paper_0_4mhz();
    println!("running {config} (pooled capture tasks)…");
    let spectra = fase_specan::run_campaign_with_options(
        &config,
        ActivityPair::LdmLdl1,
        |_| SimulatedSystem::intel_i7_desktop(42),
        110,
        fase_specan::CampaignOptions::default(),
    )
    .expect("campaign");
    let report = Fase::default().analyze(&spectra).expect("analysis");

    let mean = spectra.mean_spectrum();
    plot_spectrum(
        "Figure 11 background: mean spectrum 0-4 MHz (dBm)",
        &mean,
        110,
        14,
    );

    let mut rows = Vec::new();
    for set in report.harmonic_sets() {
        for c in set.members() {
            rows.push(vec![
                fmt_freq(set.fundamental()),
                fmt_freq(c.frequency()),
                format!("{}", c.magnitude()),
                format!("{}", c.sideband_magnitude()),
                format!("{:.1}", c.total_log_score()),
            ]);
        }
    }
    print_table(
        "Figure 11: carriers reported by FASE (LDM/LDL1)",
        &[
            "set fundamental",
            "carrier",
            "magnitude",
            "side-bands",
            "evidence",
        ],
        &rows,
    );

    // Shape checks against the paper.
    let near = |f: f64, tol: f64| report.carrier_near(Hertz(f), Hertz(tol)).is_some();
    let family = |base: f64| (1..=30).any(|k| near(base * k as f64, 2_500.0));
    let station_flagged = stations.iter().filter(|s| near(s.hz(), 5_000.0)).count();
    let checks = [
        (
            "DRAM memory regulator family (315 kHz)",
            family(315_000.0),
            true,
        ),
        (
            "memory-interface regulator family (522 kHz)",
            family(522_070.0),
            true,
        ),
        (
            "memory refresh family (128 kHz multiples)",
            family(128_000.0),
            true,
        ),
        (
            "core regulator 332 kHz (must NOT appear)",
            near(332_000.0, 2_000.0),
            false,
        ),
        ("any broadcast station flagged", station_flagged > 0, false),
    ];
    println!();
    for (name, got, want) in checks {
        println!(
            "  {name}: {} {}",
            got,
            if got == want {
                "✓"
            } else {
                "✗ (expected different)"
            }
        );
    }

    write_spectra_csv("fig11_mean_spectrum.csv", &["mean"], &[&mean]);
    write_csv(
        "fig11_carriers.csv",
        "fundamental_hz,carrier_hz,magnitude_dbm,sideband_dbm,evidence",
        report.harmonic_sets().iter().flat_map(|set| {
            set.members().iter().map(move |c| {
                format!(
                    "{:.1},{:.1},{:.2},{:.2},{:.2}",
                    set.fundamental().hz(),
                    c.frequency().hz(),
                    c.magnitude().dbm(),
                    c.sideband_magnitude().dbm(),
                    c.total_log_score()
                )
            })
        }),
    );
}
