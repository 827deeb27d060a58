//! Figure 4: a non-ideal carrier modulated by arbitrary program activity —
//! the convolution of Figure 2's side-band structure with Figure 3's
//! carrier spread.

use crate::{plot_spectrum, synthetic_carrier_capture, write_spectra_csv};
use fase_dsp::{Hertz, Spectrum};
use fase_emsim::CaptureWindow;
use fase_sysmodel::{ActivityPair, Domain, Machine};

pub fn run() -> bool {
    let fc = Hertz::from_khz(500.0);
    let n = 1 << 16;
    let fs = 100e3;
    let window = CaptureWindow::new(fc, fs, n, 0.0);
    let mut machine = Machine::core_i7();
    let bench = ActivityPair::LdmLdl1.calibrated(&mut machine, 10_000.0);
    let mut rng = fase_dsp::rng::SmallRng::seed_from_u64(5);
    let trace = machine.run_alternation(&bench, n as f64 / fs, &mut rng);
    let load = trace.rasterize(Domain::Dram, fs, n);
    let iq = synthetic_carrier_capture(
        &window,
        fc,
        |i, _| 1e-5 * (1.0 + 0.5 * (2.0 * load[i] - 1.0)),
        300.0,
        6,
    );
    let spectrum =
        Spectrum::from_capture(window.center(), window.sample_rate(), &iq).expect("spectrum");
    plot_spectrum(
        "Figure 4: non-ideal carrier, program-activity modulation (dBm)",
        &spectrum,
        72,
        12,
    );
    write_spectra_csv("fig04_nonideal_am.csv", &["spectrum"], &[&spectrum]);
    true
}
