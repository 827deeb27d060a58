//! Figure 1: an ideal sinusoidal carrier modulated by an ideal sinusoid —
//! the textbook AM spectrum: carrier at f_c plus side-bands at f_c ± f_alt.

use crate::{plot_spectrum, synthetic_carrier_capture, write_spectra_csv};
use fase_dsp::{Hertz, Spectrum};
use fase_emsim::CaptureWindow;

pub fn run() -> bool {
    let fc = Hertz::from_khz(500.0);
    let f_alt = Hertz::from_khz(10.0);
    let n = 1 << 14;
    let fs = 100e3;
    let window = CaptureWindow::new(fc, fs, n, 0.0);
    let m = 0.5;
    let iq = synthetic_carrier_capture(
        &window,
        fc,
        |_, t| 1e-5 * (1.0 + m * (std::f64::consts::TAU * f_alt.hz() * t).sin()),
        0.0,
        1,
    );
    let spectrum =
        Spectrum::from_capture(window.center(), window.sample_rate(), &iq).expect("spectrum");
    plot_spectrum(
        "Figure 1: ideal carrier, sinusoidal modulation (dBm)",
        &spectrum,
        72,
        12,
    );

    // The defining structure: carrier and two side-bands m/2 down (−12 dB
    // for m = 0.5), nothing else.
    let level = |f: Hertz| 10.0 * spectrum.sample(f).expect("in band").log10();
    let carrier = level(fc);
    let upper = level(Hertz(fc.hz() + f_alt.hz()));
    let lower = level(Hertz(fc.hz() - f_alt.hz()));
    println!("\ncarrier {carrier:.1} dBm, side-bands {lower:.1} / {upper:.1} dBm");
    println!(
        "expected side-band offset: {:.1} dB (measured {:.1} / {:.1})",
        20.0 * (m / 2.0f64).log10(),
        lower - carrier,
        upper - carrier
    );
    write_spectra_csv("fig01_ideal_am.csv", &["spectrum"], &[&spectrum]);
    true
}
