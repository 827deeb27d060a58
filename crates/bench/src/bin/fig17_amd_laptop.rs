//! Figure 17: FASE results for the AMD Turion X2 laptop with LDM/LDL1
//! activity: the 132 kHz refresh family and the regulator carriers are
//! found; the frequency-modulated core regulator is correctly rejected.

use fase_bench::{fmt_freq, print_table, write_csv};
use fase_core::{CampaignConfig, Fase};
use fase_dsp::Hertz;
use fase_emsim::SimulatedSystem;
use fase_specan::{run_campaign_with_options, CampaignOptions};
use fase_sysmodel::ActivityPair;

fn main() {
    let config = CampaignConfig::builder()
        .band(Hertz::from_khz(60.0), Hertz::from_mhz(1.1))
        .resolution(Hertz(50.0))
        .alternation(Hertz::from_khz(43.3), Hertz(500.0), 5)
        .averages(4)
        .build()
        .expect("config");
    println!("running {config}…");
    let spectra = run_campaign_with_options(
        &config,
        ActivityPair::LdmLdl1,
        |_| SimulatedSystem::amd_turion_laptop(2007),
        170,
        CampaignOptions::default(),
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
        "Figure 17: carriers reported by FASE (AMD Turion X2, LDM/LDL1)",
        &["set fundamental", "carrier", "magnitude", "side-bands"],
        &rows,
    );

    let near = |f: f64, tol: f64| report.carrier_near(Hertz(f), Hertz(tol)).is_some();
    let refresh_family = (1..=8).any(|k| near(132_000.0 * k as f64, 2_500.0));
    let checks = [
        (
            "memory refresh family (132 kHz multiples)",
            refresh_family,
            true,
        ),
        ("memory regulator (389 kHz)", near(389_140.0, 2_500.0), true),
        (
            "unidentified carrier A (702 kHz)",
            near(701_750.0, 2_500.0),
            true,
        ),
        (
            "unidentified carrier B (947 kHz)",
            near(946_930.0, 2_500.0),
            true,
        ),
        (
            "FM core regulator (281 kHz) — must NOT appear",
            near(280_870.0, 4_000.0),
            false,
        ),
    ];
    println!();
    for (name, got, want) in checks {
        println!(
            "  {name}: {got} {}",
            if got == want {
                "✓"
            } else {
                "✗ (expected different)"
            }
        );
    }

    write_csv(
        "fig17_carriers.csv",
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
