//! Figure 15: the spread DRAM clock with 50% memory activity (LDM/LDL1) at
//! alternation frequencies large enough (180–220 kHz) to push the
//! side-band images outside the 1 MHz-wide carrier spread.

use fase_bench::{plot_spectrum, write_spectra_csv};
use fase_core::CampaignConfig;
use fase_dsp::{Hertz, Spectrum};
use fase_emsim::SimulatedSystem;
use fase_specan::{measure_alternation, CampaignOptions};
use fase_sysmodel::ActivityPair;

fn main() {
    let campaign = CampaignConfig::builder()
        .band(Hertz::from_mhz(329.0), Hertz::from_mhz(336.0))
        .resolution(Hertz(2_000.0))
        .alternation(Hertz(180_000.0), Hertz(10_000.0), 5)
        .averages(4)
        .build()
        .expect("config");
    let f_alts = campaign.alternation_frequencies();
    let spectra: Vec<Spectrum> = (0..f_alts.len())
        .map(|i| {
            measure_alternation(
                &campaign,
                i,
                ActivityPair::LdmLdl1,
                |_| SimulatedSystem::intel_i7_desktop(42),
                150 + i as u64,
                CampaignOptions::default(),
            )
            .expect("capture")
            .spectrum
        })
        .collect();
    plot_spectrum(
        "Figure 15: DRAM clock, 50% memory activity, f_alt = 180 kHz (dBm)",
        &spectra[0],
        100,
        10,
    );
    // Side-band image power around (sweep center + f_alt) for each f_alt.
    println!("\nupper side-band image power (332.85 MHz sweep center + f_alt):");
    for (s, &f_alt) in spectra.iter().zip(&f_alts) {
        let band = s
            .band(
                Hertz(332.85e6 + f_alt.hz() - 160e3),
                Hertz(332.85e6 + f_alt.hz() + 160e3),
            )
            .expect("image band");
        println!(
            "  f_alt {:.0} kHz: {:.1} dBm (total in 320 kHz)",
            f_alt.khz(),
            10.0 * band.total_power().log10()
        );
    }
    let refs: Vec<&Spectrum> = spectra.iter().collect();
    write_spectra_csv(
        "fig15_ss_sidebands.csv",
        &[
            "falt_180k",
            "falt_190k",
            "falt_200k",
            "falt_210k",
            "falt_220k",
        ],
        &refs,
    );
}
