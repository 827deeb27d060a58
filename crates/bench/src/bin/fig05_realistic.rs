//! Figure 5: the Figure 4 signal as it actually appears — buried among
//! broadband noise hills, unmodulated spurs and broadcast interference.
//! This is the spectrum FASE must make sense of.

use fase_bench::{plot_spectrum, write_spectra_csv};
use fase_core::CampaignConfig;
use fase_dsp::Hertz;
use fase_emsim::SimulatedSystem;
use fase_specan::{measure_alternation, CampaignOptions};
use fase_sysmodel::ActivityPair;

fn main() {
    // One spectrum of the full i7 scene: the 315 kHz regulator's side-bands
    // are in there, along with everything else.
    // The first alternation (f_alt = 43.3 kHz) of a paper-style campaign.
    let campaign = CampaignConfig::builder()
        .band(Hertz::from_khz(150.0), Hertz::from_khz(700.0))
        .resolution(Hertz(100.0))
        .alternation(Hertz::from_khz(43.3), Hertz(500.0), 5)
        .averages(CampaignConfig::paper_0_4mhz().averages())
        .build()
        .expect("config");
    let spectrum = measure_alternation(
        &campaign,
        0,
        ActivityPair::LdmLdl1,
        |_| SimulatedSystem::intel_i7_desktop(42),
        7,
        CampaignOptions::default(),
    )
    .expect("capture")
    .spectrum;
    plot_spectrum(
        "Figure 5: realistic spectrum — carrier + side-bands + noise + spurs + stations (dBm)",
        &spectrum,
        100,
        14,
    );
    println!("\neven knowing f_c = 315 kHz and f_alt = 43.3 kHz, deciding by eye whether");
    println!("this spectrum contains an activity-modulated signal is hopeless — hence FASE.");
    write_spectra_csv("fig05_realistic.csv", &["spectrum"], &[&spectrum]);
}
