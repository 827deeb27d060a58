//! Figure 3: a non-ideal (RC-oscillator) carrier modulated by an ideal
//! sinusoid. The carrier's spread is inherited by both side-bands.

use crate::{plot_spectrum, synthetic_carrier_capture, write_spectra_csv};
use fase_dsp::{Hertz, Spectrum};
use fase_emsim::CaptureWindow;

pub fn run() -> bool {
    let fc = Hertz::from_khz(500.0);
    let f_alt = Hertz::from_khz(10.0);
    let n = 1 << 16;
    let fs = 100e3;
    let window = CaptureWindow::new(fc, fs, n, 0.0);
    let iq = synthetic_carrier_capture(
        &window,
        fc,
        |_, t| 1e-5 * (1.0 + 0.5 * (std::f64::consts::TAU * f_alt.hz() * t).sin()),
        300.0, // RC-oscillator line width
        4,
    );
    let spectrum =
        Spectrum::from_capture(window.center(), window.sample_rate(), &iq).expect("spectrum");
    plot_spectrum(
        "Figure 3: non-ideal carrier, sinusoidal modulation (dBm)",
        &spectrum,
        72,
        12,
    );
    println!("\nthe side-bands at f_c ± f_alt inherit the carrier's spread even though");
    println!("f_alt itself is perfectly stable (paper §2.1).");
    write_spectra_csv("fig03_jittered_carrier.csv", &["spectrum"], &[&spectrum]);
    true
}
