//! Rejection demo: the AM broadcast band is full of strong, genuinely
//! amplitude-modulated stations — none of them modulated by the victim's
//! program activity. A generic AM classifier reports them all; FASE
//! reports none (§1, §2.3, §5).
//!
//! ```sh
//! cargo run --release --example radio_rejection
//! ```

use fase::baseline::{classify_am, AmcConfig};
use fase::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let system = SimulatedSystem::intel_i7_desktop(42);
    let station_freqs: Vec<Hertz> = system
        .scene
        .ground_truth()
        .iter()
        .filter(|s| s.kind == fase::emsim::SourceKind::AmBroadcast)
        .map(|s| s.fundamental)
        .collect();
    println!(
        "scene contains {} AM broadcast stations",
        station_freqs.len()
    );

    // Sweep the AM broadcast band.
    let campaign = CampaignConfig::builder()
        .band(Hertz::from_khz(540.0), Hertz::from_khz(1_700.0))
        .resolution(Hertz(200.0))
        .alternation(Hertz::from_khz(43.3), Hertz(500.0), 5)
        .averages(3)
        .build()?;
    let spectra = run_campaign_with_options(
        &campaign,
        ActivityPair::LdmLdl1,
        |_| SimulatedSystem::intel_i7_desktop(42),
        7,
        CampaignOptions::default(),
    )?;

    // Baseline: a generic AM classifier on one captured spectrum.
    let generic = classify_am(spectra.spectrum(0), &AmcConfig::default());
    println!("\ngeneric AM classifier reports {} signals:", generic.len());
    for d in &generic {
        println!("  {} @ {:.1} dBm", d.carrier, d.carrier_dbm);
    }

    // FASE on the full campaign.
    let report = Fase::default().analyze(&spectra)?;
    println!("\nFASE reports {} carriers:", report.len());
    for c in report.carriers() {
        println!("  {c}");
    }

    // Score: how many broadcast stations did each method flag?
    let near_station = |f: Hertz| station_freqs.iter().any(|s| (f - *s).hz().abs() < 5_000.0);
    let generic_stations = generic.iter().filter(|d| near_station(d.carrier)).count();
    let fase_stations = report
        .carriers()
        .iter()
        .filter(|c| near_station(c.frequency()))
        .count();
    println!(
        "\nbroadcast stations flagged: generic classifier = {generic_stations}, FASE = {fase_stations}"
    );
    if fase_stations == 0 {
        println!("FASE correctly rejected every broadcast station.");
    }
    Ok(())
}
