//! Quickstart: find the activity-modulated carriers of a simulated Intel
//! Core i7 desktop in the 250–400 kHz band.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! The band contains three regulators (DRAM @ 315 kHz, core @ 332 kHz,
//! memory-interface fundamental above the band) plus spurs and broadcast
//! interference. Driving the LDM/LDL1 (main-memory vs. L1-hit) alternation
//! should expose the *DRAM* regulator: its duty cycle tracks DRAM load.

use fase::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The victim machine and its EM scene (antenna at 30 cm, as in the
    //    paper's setup).
    let system = SimulatedSystem::intel_i7_desktop(42);
    println!(
        "simulated system with {} EM sources",
        system.scene.source_count()
    );

    // 2. A measurement campaign: five alternation frequencies around
    //    30 kHz, 200 Hz resolution, 3 averaged captures per spectrum.
    let campaign = CampaignConfig::builder()
        .band(Hertz::from_khz(250.0), Hertz::from_khz(400.0))
        .resolution(Hertz(200.0))
        .alternation(Hertz::from_khz(30.0), Hertz::from_khz(2.0), 5)
        .averages(3)
        .build()?;
    println!("running {campaign}");

    // 3. Drive the X/Y micro-benchmark and capture the spectra.
    //    Captures run on a pool of tasks, each building the system afresh.
    let spectra = run_campaign_with_options(
        &campaign,
        ActivityPair::LdmLdl1,
        |_| SimulatedSystem::intel_i7_desktop(42),
        7,
        CampaignOptions::default(),
    )?;

    // 4. FASE: score side-band shifts, detect carriers.
    let report = Fase::new(FaseConfig::default()).analyze(&spectra)?;
    println!("\n{report}");

    for carrier in report.carriers() {
        println!(
            "  -> carrier at {}: {} (side-bands {}, modulation depth {})",
            carrier.frequency(),
            carrier.magnitude(),
            carrier.sideband_magnitude(),
            carrier.modulation_depth(),
        );
    }

    let found_dram_regulator = report
        .carrier_near(Hertz::from_khz(315.0), Hertz::from_khz(2.0))
        .is_some();
    println!(
        "\nDRAM regulator (315 kHz) detected: {}",
        if found_dram_regulator {
            "yes"
        } else {
            "NO (unexpected)"
        }
    );
    Ok(())
}
