//! Figure 2: an ideal carrier modulated by *program activity* — the
//! micro-benchmark's jittered alternation. Repetition times cluster around
//! several common values (contention), so each side-band becomes a main
//! spike with smaller "bumps".

use crate::{plot_spectrum, synthetic_carrier_capture, write_spectra_csv};
use fase_dsp::Hertz;
use fase_emsim::CaptureWindow;
use fase_specan::capture_spectrum;
use fase_sysmodel::{ActivityPair, Domain, Machine};

pub fn run() -> bool {
    let fc = Hertz::from_khz(500.0);
    let f_alt = 10_000.0;
    let n = 1 << 16;
    let fs = 100e3;
    let window = CaptureWindow::new(fc, fs, n, 0.0);

    // Real program activity from the machine model.
    let mut machine = Machine::core_i7();
    let bench = ActivityPair::LdmLdl1.calibrated(&mut machine, f_alt);
    let mut rng = fase_dsp::rng::SmallRng::seed_from_u64(2);
    let trace = machine.run_alternation(&bench, n as f64 / fs, &mut rng);
    let load = trace.rasterize(Domain::Dram, fs, n);

    let iq = synthetic_carrier_capture(
        &window,
        fc,
        |i, _| 1e-5 * (1.0 + 0.5 * (2.0 * load[i] - 1.0)),
        0.0,
        3,
    );
    let spectrum = capture_spectrum(&window, &iq).expect("spectrum");
    plot_spectrum(
        "Figure 2: ideal carrier, program-activity modulation (dBm)",
        &spectrum,
        72,
        12,
    );
    println!("\nside-bands now carry the activity spectrum: a dominant spike at");
    println!("f_c ± f_alt plus bumps from the other commonly-occurring repetition times.");
    write_spectra_csv("fig02_program_am.csv", &["spectrum"], &[&spectrum]);
    true
}
