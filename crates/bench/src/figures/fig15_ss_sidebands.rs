//! Figure 15: the spread DRAM clock with 50% memory activity (LDM/LDL1) at
//! alternation frequencies large enough (180–220 kHz) to push the
//! side-band images outside the 1 MHz-wide carrier spread.

use crate::{measure_i7, plot_spectrum, ss_clock_campaign, write_spectra_csv};
use fase_dsp::{Hertz, Spectrum};
use fase_sysmodel::ActivityPair;

pub fn run() -> bool {
    let campaign = ss_clock_campaign();
    let f_alts = campaign.alternation_frequencies();
    let spectra: Vec<Spectrum> = (0..f_alts.len())
        .map(|i| measure_i7(&campaign, i, ActivityPair::LdmLdl1, 150 + i as u64))
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
    true
}
