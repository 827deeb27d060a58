//! Brute-force time-domain synthesis: exact numerical downconversion of
//! rectangular waveforms.
//!
//! The production sources use analytic per-harmonic synthesis (cheap at
//! any span). This module provides the reference backend: integrate
//! `A·e^{-j2πf₀t}` over the actual "on" intervals of a waveform, sample by
//! sample. It is slow but assumption-free, which makes it the
//! cross-validation oracle for the analytic sources (see
//! `tests/pulse_validation.rs`) and a building block for custom waveforms.

use fase_dsp::Complex64;
use std::f64::consts::TAU;

/// `∫ e^{-j2πf₀t} dt` over `[a, b]` (the DC case degenerates to `b − a`).
fn tone_integral(f0: f64, a: f64, b: f64) -> Complex64 {
    if f0.abs() < 1e-9 {
        Complex64::new(b - a, 0.0)
    } else {
        let w = TAU * f0;
        (Complex64::cis(-w * b) - Complex64::cis(-w * a)) * Complex64::new(0.0, 1.0) / w
    }
}

/// Downconverts a waveform that is `amplitude` during each `[start, end)`
/// interval (and zero elsewhere) to complex baseband centered at
/// `center_hz`, sampled at `fs` for `n` samples.
///
/// Intervals must be sorted and non-overlapping; times are in seconds from
/// the capture start.
///
/// # Panics
///
/// Panics if `fs` is not positive.
pub fn downconvert_intervals(
    intervals: &[(f64, f64)],
    amplitude: f64,
    center_hz: f64,
    fs: f64,
    n: usize,
) -> Vec<Complex64> {
    assert!(fs > 0.0, "sample rate must be positive");
    let ts = 1.0 / fs;
    let mut out = vec![Complex64::ZERO; n];
    for &(a, b) in intervals {
        if b <= 0.0 || a >= n as f64 * ts || b <= a {
            continue;
        }
        let first = ((a / ts).floor().max(0.0)) as usize;
        let last = ((b / ts).ceil() as usize).min(n);
        for (idx, sample) in out.iter_mut().enumerate().take(last).skip(first) {
            let s0 = idx as f64 * ts;
            let lo = a.max(s0);
            let hi = b.min(s0 + ts);
            if hi > lo {
                *sample += tone_integral(center_hz, lo, hi).scale(amplitude / ts);
            }
        }
    }
    out
}

/// Downconverts an ideal fixed-frequency PWM train (period `1/fsw`, duty
/// cycle `duty`, pulses starting on the period grid) — the reference
/// signal for validating the analytic regulator model.
///
/// # Panics
///
/// Panics if `fsw` is not positive or `duty` is outside `(0, 1)`.
pub fn downconvert_pwm(
    amplitude: f64,
    fsw: f64,
    duty: f64,
    center_hz: f64,
    fs: f64,
    n: usize,
) -> Vec<Complex64> {
    assert!(fsw > 0.0, "switching frequency must be positive");
    assert!(duty > 0.0 && duty < 1.0, "duty must be in (0,1)");
    let period = 1.0 / fsw;
    let on = duty * period;
    let duration = n as f64 / fs;
    let count = (duration / period).ceil() as usize + 1;
    let intervals: Vec<(f64, f64)> = (0..count)
        .map(|k| {
            let start = k as f64 * period;
            (start, start + on)
        })
        .collect();
    downconvert_intervals(&intervals, amplitude, center_hz, fs, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fase_dsp::{Hertz, Spectrum};

    fn peak_power_dbm(iq: &[Complex64], fs: f64, offset: f64) -> f64 {
        let n = iq.len();
        let spectrum = Spectrum::from_capture(Hertz(0.0), fs, iq).unwrap();
        let b = ((n / 2) as i64 + (offset / (fs / n as f64)).round() as i64) as usize;
        let p = spectrum.powers()[b.saturating_sub(2)..=(b + 2).min(n - 1)]
            .iter()
            .copied()
            .fold(0.0, f64::max);
        10.0 * p.log10()
    }

    #[test]
    fn dc_downconversion_preserves_duty() {
        // At center 0 the output is the waveform's per-sample mean: a long
        // average reads amplitude·duty.
        let iq = downconvert_pwm(2.0, 100_000.0, 0.25, 0.0, 1.0e6, 10_000);
        let mean: f64 = iq.iter().map(|z| z.re).sum::<f64>() / iq.len() as f64;
        assert!((mean - 0.5).abs() < 1e-3, "mean {mean}");
        assert!(iq.iter().all(|z| z.im.abs() < 1e-12));
    }

    #[test]
    fn pwm_harmonics_match_fourier_theory() {
        // Harmonic k of a duty-d train has baseband magnitude
        // A·d·sinc(πkd); check k = 1..3 against the FFT readout.
        let (a, fsw, duty, fs, n) = (1e-4, 200_000.0, 0.3, 2.0e6, 1 << 15);
        let iq = downconvert_pwm(a, fsw, duty, fsw, fs, n); // centered on k=1
        for k in 1..=3u32 {
            let expected_mag = a * duty * (std::f64::consts::PI * k as f64 * duty).sin().abs()
                / (std::f64::consts::PI * k as f64 * duty);
            let expected_dbm = 20.0 * expected_mag.log10();
            let got = peak_power_dbm(&iq, fs, (k as f64 - 1.0) * fsw);
            assert!(
                (got - expected_dbm).abs() < 1.0,
                "harmonic {k}: {got:.2} vs {expected_dbm:.2} dBm"
            );
        }
    }

    #[test]
    fn intervals_outside_capture_ignored() {
        let iq = downconvert_intervals(&[(-1.0, -0.5), (10.0, 11.0)], 1.0, 0.0, 1e3, 100);
        assert!(iq.iter().all(|z| z.norm() == 0.0));
        let empty = downconvert_intervals(&[(0.5, 0.2)], 1.0, 0.0, 1e3, 100);
        assert!(empty.iter().all(|z| z.norm() == 0.0));
    }

    #[test]
    fn partial_sample_overlap_is_fractional() {
        // A pulse covering exactly half of one sample at DC.
        let fs = 1_000.0;
        let iq = downconvert_intervals(&[(0.0005, 0.001)], 4.0, 0.0, fs, 4);
        assert!((iq[0].re - 2.0).abs() < 1e-12);
        assert!(iq[1].norm() < 1e-12);
    }
}
