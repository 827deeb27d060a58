//! Figure 12: the core regulator carrier (≈ 332 kHz) and its side-bands
//! under on-chip (LDL2/LDL1) activity — five alternation frequencies, plus
//! the LDL1/LDL1 control. The carrier's RC-oscillator line gives the
//! characteristic Gaussian-looking shape.

use fase_bench::{ascii_plot, print_table, write_spectra_csv};
use fase_core::CampaignConfig;
use fase_dsp::{Hertz, Spectrum};
use fase_emsim::SimulatedSystem;
use fase_specan::{measure_alternation, CampaignOptions};
use fase_sysmodel::ActivityPair;

/// Five alternation frequencies 0.5 kHz apart around the core regulator.
fn campaign() -> CampaignConfig {
    CampaignConfig::builder()
        .band(Hertz::from_khz(280.0), Hertz::from_khz(385.0))
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
    let fc = 332_530.0; // the core regulator's actual (off-nominal) frequency
    let f_alts = campaign().alternation_frequencies();
    let spectra: Vec<Spectrum> = (0..f_alts.len())
        .map(|i| capture(ActivityPair::Ldl2Ldl1, i, 120 + i as u64))
        .collect();
    let control = capture(ActivityPair::Ldl1Ldl1, 0, 129);

    // Carrier shape (Gaussian-ish from the RC oscillator).
    let around = spectra[0]
        .band(Hertz(fc - 3_000.0), Hertz(fc + 3_000.0))
        .expect("carrier region");
    let xs: Vec<f64> = (0..around.len())
        .map(|i| around.frequency_at(i).hz())
        .collect();
    ascii_plot(
        "carrier line shape (dBm)",
        &xs,
        &around.to_dbm_vec(),
        80,
        10,
    );

    let mut rows = Vec::new();
    for (s, &f_alt) in spectra.iter().zip(&f_alts) {
        let peak_at = |center: f64| -> (f64, f64) {
            let band = s
                .band(Hertz(center - 2_000.0), Hertz(center + 2_000.0))
                .expect("band");
            let (b, p) = band.peak_bin();
            (band.frequency_at(b).hz(), 10.0 * p.log10())
        };
        let (fu, pu) = peak_at(fc + f_alt.hz());
        let (fl, pl) = peak_at(fc - f_alt.hz());
        rows.push(vec![
            format!("{:.1} kHz", f_alt.khz()),
            format!("{:.2} kHz @ {pl:.1} dBm", fl / 1e3),
            format!("{:.2} kHz @ {pu:.1} dBm", fu / 1e3),
        ]);
    }
    print_table(
        "Figure 12: side-band peaks around the core regulator (LDL2/LDL1)",
        &["f_alt", "left side-band", "right side-band"],
        &rows,
    );
    let sb = control
        .sample(Hertz(fc + f_alts[0].hz()))
        .map(|p| 10.0 * p.log10())
        .unwrap();
    println!("\n  LDL1/LDL1 control at f_c + f_alt1: {sb:.1} dBm (no side-band)");

    let all: Vec<&Spectrum> = spectra.iter().chain(std::iter::once(&control)).collect();
    write_spectra_csv(
        "fig12_core_regulator.csv",
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
