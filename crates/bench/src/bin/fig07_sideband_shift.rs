//! Figure 7: a modulated carrier and its side-bands for five alternation
//! frequencies — the side-band peaks move by f_Δ as f_alt moves by f_Δ,
//! while the carrier (and everything unmodulated) stays put. An
//! LDL1/LDL1 control shows no side-bands at all.
//!
//! The paper plots a 1.0235 MHz carrier; our i7 scene's equivalent
//! memory-modulated carrier is the 315 kHz DRAM regulator.

use fase_bench::{ascii_plot, fmt_freq, print_table, write_spectra_csv};
use fase_core::CampaignConfig;
use fase_dsp::{Hertz, Spectrum};
use fase_emsim::SimulatedSystem;
use fase_specan::{measure_alternation, CampaignOptions};
use fase_sysmodel::ActivityPair;

/// Five alternation frequencies 0.5 kHz apart around the DRAM regulator.
fn campaign() -> CampaignConfig {
    CampaignConfig::builder()
        .band(Hertz::from_khz(260.0), Hertz::from_khz(370.0))
        .resolution(Hertz(50.0))
        .alternation(Hertz(43_300.0), Hertz(500.0), 5)
        .averages(4)
        .build()
        .expect("config")
}

fn capture(pair: ActivityPair, i_alt: usize, seed: u64) -> Spectrum {
    measure_alternation(
        &campaign(),
        i_alt,
        pair,
        |_| SimulatedSystem::intel_i7_desktop(42),
        seed,
        CampaignOptions::default(),
    )
    .expect("capture")
    .spectrum
}

fn main() {
    let fc = Hertz::from_khz(315.66); // the DRAM regulator's actual (off-nominal) frequency
    let f_alts = campaign().alternation_frequencies();
    let mut spectra = Vec::new();
    for i in 0..f_alts.len() {
        spectra.push(capture(ActivityPair::LdmLdl1, i, 70 + i as u64));
    }
    let control = capture(ActivityPair::Ldl1Ldl1, 0, 99);

    // Where is the upper side-band peak in each measurement?
    let mut rows = Vec::new();
    for (s, &f_alt) in spectra.iter().zip(&f_alts) {
        let lo = Hertz(fc.hz() + f_alt.hz() - 2_000.0);
        let hi = Hertz(fc.hz() + f_alt.hz() + 2_000.0);
        let band = s.band(lo, hi).expect("band");
        let (peak, p) = band.peak_bin();
        rows.push(vec![
            format!("{:.1} kHz", f_alt.khz()),
            fmt_freq(band.frequency_at(peak)),
            format!("{:.1} dBm", 10.0 * p.log10()),
            format!("{:.1} kHz", (band.frequency_at(peak).hz() - fc.hz()) / 1e3),
        ]);
    }
    print_table(
        "Figure 7: upper side-band peak vs f_alt (LDM/LDL1, carrier 315.66 kHz)",
        &["f_alt", "side-band peak", "level", "offset from f_c"],
        &rows,
    );
    println!("\n  -> the peak tracks f_alt step-for-step (f_Δ = 0.5 kHz).");

    // Control: no side-band for LDL1/LDL1.
    let sb = control
        .sample(Hertz(fc.hz() + f_alts[0].hz()))
        .map(|p| 10.0 * p.log10())
        .unwrap();
    let floor = 10.0 * control.median_power().log10();
    println!(
        "  control LDL1/LDL1 at f_c + f_alt1: {sb:.1} dBm (floor {floor:.1} dBm) — no side-band"
    );

    let right = spectra[0]
        .band(Hertz::from_khz(355.0), Hertz::from_khz(365.0))
        .expect("band");
    let xs: Vec<f64> = (0..right.len())
        .map(|i| right.frequency_at(i).hz())
        .collect();
    ascii_plot(
        "right side-band region, f_alt1 = 43.3 kHz (dBm)",
        &xs,
        &right.to_dbm_vec(),
        90,
        10,
    );

    let all: Vec<&Spectrum> = spectra.iter().chain(std::iter::once(&control)).collect();
    write_spectra_csv(
        "fig07_sideband_shift.csv",
        &[
            "falt_43_3",
            "falt_43_8",
            "falt_44_3",
            "falt_44_8",
            "falt_45_3",
            "control_ldl1",
        ],
        &all,
    );
}
