//! Figure 10, row 2: the 0–120 MHz / 500 Hz campaign. Most of that span is
//! quiet on the i7 scene (the DRAM clock sits at 332.85 MHz), but the
//! regulator harmonic families extend to ~15 MHz and the refresh comb
//! pushes far above 4 MHz — and the 4–120 MHz emptiness is itself a
//! rejection test at scale.

use fase_bench::{fmt_freq, print_table};
use fase_core::{CampaignConfig, Fase};
use fase_dsp::Hertz;
use fase_emsim::SimulatedSystem;
use fase_sysmodel::ActivityPair;

fn main() {
    let config = CampaignConfig::paper_0_120mhz();
    println!("running {config} (pooled capture tasks; this is the big one)…");
    let spectra = fase_specan::run_campaign_with_options(
        &config,
        ActivityPair::LdmLdl1,
        |_| SimulatedSystem::intel_i7_desktop(42),
        900,
        fase_specan::CampaignOptions::default(),
    )
    .expect("campaign");
    let report = Fase::default().analyze(&spectra).expect("analysis");

    let rows: Vec<Vec<String>> = report
        .harmonic_sets()
        .iter()
        .map(|set| {
            vec![
                fmt_freq(set.fundamental()),
                format!("{:?}", set.harmonic_numbers()),
                set.len().to_string(),
            ]
        })
        .collect();
    print_table(
        "campaign 2 (0-120 MHz @ 500 Hz): harmonic sets found",
        &["fundamental", "harmonics", "members"],
        &rows,
    );

    let near = |f: f64, tol: f64| report.carrier_near(Hertz(f), Hertz(tol)).is_some();
    let regulator = (1..=8).any(|k| near(315_660.0 * k as f64, 3_000.0));
    let refresh = (1..=40).any(|k| near(128_000.0 * k as f64, 3_000.0));
    let high_band_false = report
        .carriers()
        .iter()
        .filter(|c| c.frequency().hz() > 20.0e6)
        .count();
    println!("\n  DRAM regulator family found: {regulator}");
    println!(
        "  refresh family found: {refresh} (informational: at 500 Hz bins the refresh \
         side-bands sink under the 10x-wider noise-per-bin; the 50 Hz campaign 1 finds them)"
    );
    println!("  carriers reported above 20 MHz (nothing lives there): {high_band_false}");
    assert!(regulator, "the regulator family must be found");
    assert_eq!(
        high_band_false, 0,
        "the quiet 20-120 MHz region must stay clean"
    );
    println!("PASS: campaign 2 scales to 240k bins with a clean high band.");
}
