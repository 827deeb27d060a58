//! A fuller desktop campaign: run both activity pairs the paper evaluates
//! (LDM/LDL1 and LDL2/LDL1) over 60 kHz – 2 MHz, then classify every
//! detected carrier as memory-related or on-chip-related (§2.2).
//!
//! ```sh
//! cargo run --release --example desktop_campaign
//! ```
//!
//! Expected shape (paper Figures 11 and 13): the memory pair exposes the
//! DRAM regulator (315 kHz + harmonics), the memory-interface regulator
//! (525 kHz + harmonics) and the memory-refresh family; the on-chip pair
//! exposes only the core regulator (332 kHz + harmonics).

use fase::prelude::*;

fn run_pair(pair: ActivityPair, seed: u64) -> Result<FaseReport, Box<dyn std::error::Error>> {
    let campaign = CampaignConfig::builder()
        .band(Hertz::from_khz(60.0), Hertz::from_mhz(2.0))
        .resolution(Hertz(100.0))
        .alternation(Hertz::from_khz(43.3), Hertz(500.0), 5)
        .averages(3)
        .build()?;
    let spectra = run_campaign_with_options(
        &campaign,
        pair,
        |_| SimulatedSystem::intel_i7_desktop(42),
        seed,
        CampaignOptions::default(),
    )?;
    let report = Fase::default().analyze(&spectra)?;
    println!("\n=== {pair} campaign ===\n{report}");
    Ok(report)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let memory = run_pair(ActivityPair::LdmLdl1, 101)?;
    let onchip = run_pair(ActivityPair::Ldl2Ldl1, 102)?;

    println!("=== classification (memory pair vs. on-chip pair) ===");
    for c in classify_by_pairs(&memory, &onchip, Hertz::from_khz(2.0)) {
        println!("  {} -> {}", c.carrier, c.class);
    }

    println!("\n=== harmonic sets found by the memory campaign ===");
    for set in memory.harmonic_sets() {
        let duty_hint = match set.even_odd_power_ratio() {
            Some(r) if r > 0.3 => "small duty cycle (even ≈ odd)",
            Some(_) => "near-50% duty cycle (even suppressed)",
            None => "single/odd-only evidence",
        };
        println!("  {set}  [{duty_hint}]");
    }
    Ok(())
}
