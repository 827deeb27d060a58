//! Figure 14: the spread-spectrum DRAM clock (swept 332–333 MHz) with 0%
//! (LDL1/LDL1) and 100% (LDM/LDM) memory activity — the whole spread
//! spectrum rises bodily with DRAM activity.

use fase_bench::{plot_spectrum, write_spectra_csv};
use fase_core::CampaignConfig;
use fase_dsp::{Hertz, Spectrum};
use fase_emsim::SimulatedSystem;
use fase_specan::{measure_alternation, CampaignOptions};
use fase_sysmodel::ActivityPair;

/// One spectrum of the DRAM clock band with the benchmark alternating at
/// 180 kHz (the first alternation of the Figure 15 family).
fn capture(pair: ActivityPair, seed: u64) -> Spectrum {
    let campaign = CampaignConfig::builder()
        .band(Hertz::from_mhz(329.0), Hertz::from_mhz(336.0))
        .resolution(Hertz(2_000.0))
        .alternation(Hertz::from_khz(180.0), Hertz(10_000.0), 5)
        .averages(4)
        .build()
        .expect("config");
    measure_alternation(
        &campaign,
        0,
        pair,
        |_| SimulatedSystem::intel_i7_desktop(42),
        seed,
        CampaignOptions::default(),
    )
    .expect("capture")
    .spectrum
}

fn main() {
    let idle = capture(ActivityPair::Ldl1Ldl1, 140);
    let busy = capture(ActivityPair::LdmLdm, 141);
    plot_spectrum(
        "Figure 14a: DRAM clock, 0% memory activity (dBm)",
        &idle,
        100,
        10,
    );
    plot_spectrum(
        "Figure 14b: DRAM clock, 100% memory activity (dBm)",
        &busy,
        100,
        10,
    );

    let band_power = |s: &Spectrum| {
        s.band(Hertz::from_mhz(331.8), Hertz::from_mhz(333.2))
            .expect("clock band")
            .total_power()
    };
    let ratio_db = 10.0 * (band_power(&busy) / band_power(&idle)).log10();
    println!("\nclock-band power: 100% vs 0% activity = +{ratio_db:.1} dB");
    println!("(the emanation scales with DRAM switching activity, §4.3)");
    write_spectra_csv(
        "fig14_ss_clock_load.csv",
        &["idle_0pct", "busy_100pct"],
        &[&idle, &busy],
    );
}
