//! §4.3: "predictable spread-spectrum clocking does not mitigate
//! information leakage" — track the swept DRAM clock's ridge through a
//! spectrogram and demodulate the memory-activity square wave riding on it.

use crate::{ascii_plot, write_csv};
use fase_dsp::demod::ridge_track_in_band;
use fase_dsp::{stats, Hertz, Window};
use fase_emsim::SimulatedSystem;
use fase_specan::capture_iq;
use fase_sysmodel::ActivityPair;

pub fn run() -> bool {
    // Alternate memory activity at 2 kHz and watch the 332.7-333.0 MHz
    // spread clock.
    let f_alt = Hertz::from_khz(2.0);
    let mut system = SimulatedSystem::intel_i7_desktop(42);
    let span = 1.0e6;
    let samples = 1 << 16; // 65.5 ms
    let capture = capture_iq(
        &mut system,
        ActivityPair::LdmLdl1,
        700,
        Hertz::from_mhz(332.85),
        span,
        samples,
        f_alt,
    );

    // Track the sweeping carrier: 64-sample frames (64 µs, 15.6 kHz bins).
    // The receiver knows the clock's nominal sweep band (±170 kHz around
    // the tuned center).
    let ridge = ridge_track_in_band(
        &capture.samples,
        span,
        64,
        32,
        Window::Hann,
        Some((-170e3, 170e3)),
    );
    println!(
        "tracked {} frames; carrier wanders {:.0}..{:.0} kHz around 332.85 MHz",
        ridge.len(),
        ridge
            .iter()
            .map(|p| p.frequency_offset)
            .fold(f64::MAX, f64::min)
            / 1e3,
        ridge
            .iter()
            .map(|p| p.frequency_offset)
            .fold(f64::MIN, f64::max)
            / 1e3,
    );

    // The demodulated ridge amplitude is the memory-activity readout.
    let amps: Vec<f64> = ridge.iter().map(|p| p.amplitude).collect();
    let times: Vec<f64> = ridge.iter().map(|p| p.time * 1e3).collect();
    let head = 300.min(amps.len());
    ascii_plot(
        "tracked carrier amplitude vs time (ms) — the leaked activity waveform",
        &times[..head],
        &amps[..head],
        100,
        10,
    );

    // Quantify: split frames by which alternation half-period they fall in.
    let achieved = capture.f_alt.hz();
    let (mut busy, mut idle) = (Vec::new(), Vec::new());
    for p in &ridge {
        let phase = (p.time * achieved).rem_euclid(1.0);
        if phase < 0.5 {
            busy.push(p.amplitude);
        } else {
            idle.push(p.amplitude);
        }
    }
    let ratio_db = 20.0 * (stats::mean(&busy) / stats::mean(&idle)).log10();
    println!(
        "\nmean tracked amplitude, memory-busy vs idle half-periods: {:.1} dB",
        ratio_db.abs()
    );
    assert!(
        ratio_db.abs() > 6.0,
        "carrier tracking should recover the activity contrast"
    );
    println!("PASS: the spread-spectrum clock leaks the activity waveform to a tracking receiver.");
    write_csv(
        "carrier_tracking.csv",
        "time_s,freq_offset_hz,amplitude",
        ridge.iter().map(|p| {
            format!(
                "{:.6},{:.1},{:.3e}",
                p.time, p.frequency_offset, p.amplitude
            )
        }),
    );
    true
}
