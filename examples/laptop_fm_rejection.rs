//! The AMD Turion X2 laptop (§4.4, Figure 17): FASE finds the 132 kHz
//! memory refresh and the regulator carriers, but must *not* report the
//! constant-on-time core regulator — that one is frequency-modulated by
//! load, not amplitude-modulated.
//!
//! ```sh
//! cargo run --release --example laptop_fm_rejection
//! ```

use fase::emsim::SourceKind;
use fase::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let system = SimulatedSystem::amd_turion_laptop(2007);

    let fm_regulator = system
        .scene
        .ground_truth()
        .into_iter()
        .find(|s| s.kind == SourceKind::FmRegulator)
        .expect("scene has the constant-on-time regulator");
    println!(
        "ground truth: FM regulator at {} (modulated by {:?} — in frequency!)",
        fm_regulator.fundamental, fm_regulator.modulated_by
    );

    let campaign = CampaignConfig::builder()
        .band(Hertz::from_khz(100.0), Hertz::from_mhz(1.1))
        .resolution(Hertz(100.0))
        .alternation(Hertz::from_khz(43.3), Hertz(500.0), 5)
        .averages(3)
        .build()?;
    let spectra = run_campaign_with_options(
        &campaign,
        ActivityPair::LdmLdl1,
        |_| SimulatedSystem::amd_turion_laptop(2007),
        17,
        CampaignOptions::default(),
    )?;
    let report = Fase::default().analyze(&spectra)?;
    println!("\n{report}");

    // The refresh family may be detected at any of its harmonics (the
    // paper itself first saw it at 512 kHz = 4 x 128 kHz).
    let refresh_family_found = (1..=8).any(|k| {
        report
            .carrier_near(Hertz(132_000.0 * k as f64), Hertz::from_khz(3.0))
            .is_some()
    });

    let checks: [(&str, Option<Hertz>, bool); 4] = [
        ("memory refresh family (n x 132 kHz)", None, true),
        (
            "memory regulator 390 kHz",
            Some(Hertz::from_khz(390.0)),
            true,
        ),
        (
            "unidentified carrier 700 kHz",
            Some(Hertz::from_khz(700.0)),
            true,
        ),
        (
            "FM core regulator 280 kHz",
            Some(Hertz::from_khz(280.0)),
            false,
        ),
    ];
    let mut all_ok = true;
    for (name, f, expected) in checks {
        let found = match f {
            Some(f) => report.carrier_near(f, Hertz::from_khz(3.0)).is_some(),
            None => refresh_family_found,
        };
        let ok = found == expected;
        all_ok &= ok;
        println!(
            "  {name}: {} (expected {}) {}",
            if found { "reported" } else { "not reported" },
            if expected { "reported" } else { "not reported" },
            if ok { "✓" } else { "✗" }
        );
    }
    println!(
        "\n{}",
        if all_ok {
            "All expectations hold — the FM carrier is correctly rejected."
        } else {
            "Some expectations FAILED."
        }
    );
    Ok(())
}
