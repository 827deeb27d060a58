//! Windowed-sinc FIR filter design and application.
//!
//! The receiver side of the pipeline (demodulation, covert-channel
//! extraction) needs real channel filters: the boxcar in [`crate::demod`]
//! is cheap but leaks; these Hann-windowed sinc designs give controlled
//! passbands with a deep stop-band.

use crate::complex::Complex64;
use crate::window::symmetric_hann;

/// A finite-impulse-response filter (real, linear-phase taps).
///
/// # Examples
///
/// ```
/// use fase_dsp::fir::Fir;
/// // 200 Hz-wide lowpass at 10 kS/s.
/// let fir = Fir::lowpass(201, 200.0, 10_000.0);
/// assert_eq!(fir.len(), 201);
/// // Unity DC gain by construction.
/// assert!((fir.taps().iter().sum::<f64>() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Fir {
    taps: Vec<f64>,
}

impl Fir {
    /// Designs a lowpass with cutoff `cutoff_hz` (−6 dB point) at sample
    /// rate `fs`, using `taps` coefficients shaped by a symmetric Hann
    /// window.
    ///
    /// # Panics
    ///
    /// Panics if `taps` is even or zero, or the cutoff is not in
    /// `(0, fs/2)`.
    pub fn lowpass(taps: usize, cutoff_hz: f64, fs: f64) -> Fir {
        assert!(taps % 2 == 1 && taps > 0, "tap count must be odd");
        assert!(
            cutoff_hz > 0.0 && cutoff_hz < fs / 2.0,
            "cutoff must be within (0, fs/2)"
        );
        let fc = cutoff_hz / fs;
        let mid = (taps / 2) as f64;
        let win = symmetric_hann(taps);
        let mut h: Vec<f64> = (0..taps)
            .map(|n| {
                let x = n as f64 - mid;
                let sinc = if x == 0.0 {
                    2.0 * fc
                } else {
                    (std::f64::consts::TAU * fc * x).sin() / (std::f64::consts::PI * x)
                };
                sinc * win[n]
            })
            .collect();
        let sum: f64 = h.iter().sum();
        for t in h.iter_mut() {
            *t /= sum;
        }
        Fir { taps: h }
    }

    /// Number of taps.
    pub fn len(&self) -> usize {
        self.taps.len()
    }

    /// Always false — construction guarantees at least one tap.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The filter coefficients.
    pub fn taps(&self) -> &[f64] {
        &self.taps
    }

    /// Group delay in samples (`(taps − 1) / 2` for linear phase).
    pub fn group_delay(&self) -> usize {
        (self.taps.len() - 1) / 2
    }

    /// Filters a real signal (same-length output, zero-padded edges,
    /// delay-compensated so features stay aligned with the input).
    pub fn apply(&self, xs: &[f64]) -> Vec<f64> {
        let d = self.group_delay();
        (0..xs.len())
            .map(|i| {
                self.taps
                    .iter()
                    .enumerate()
                    .map(|(k, &t)| match (i + d).checked_sub(k) {
                        Some(j) if j < xs.len() => t * xs[j],
                        _ => 0.0,
                    })
                    .sum()
            })
            .collect()
    }

    /// Filters a complex signal (delay-compensated, like [`Fir::apply`]).
    pub fn apply_complex(&self, xs: &[Complex64]) -> Vec<Complex64> {
        let d = self.group_delay();
        (0..xs.len())
            .map(|i| {
                let mut acc = Complex64::ZERO;
                for (k, &t) in self.taps.iter().enumerate() {
                    if let Some(j) = (i + d).checked_sub(k) {
                        if j < xs.len() {
                            acc += xs[j].scale(t);
                        }
                    }
                }
                acc
            })
            .collect()
    }

    /// Magnitude response at frequency `f` (Hz) for sample rate `fs`.
    pub fn response_at(&self, f: f64, fs: f64) -> f64 {
        let w = std::f64::consts::TAU * f / fs;
        let z: Complex64 = self
            .taps
            .iter()
            .enumerate()
            .map(|(n, &t)| Complex64::cis(-w * n as f64).scale(t))
            .sum();
        z.norm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::TAU;

    #[test]
    fn lowpass_response_shape() {
        let fs = 48_000.0;
        let fir = Fir::lowpass(257, 2_000.0, fs);
        assert!((fir.response_at(0.0, fs) - 1.0).abs() < 1e-9);
        assert!(fir.response_at(500.0, fs) > 0.99);
        // −6 dB near the cutoff.
        let at_cut = fir.response_at(2_000.0, fs);
        assert!((at_cut - 0.5).abs() < 0.05, "cutoff response {at_cut}");
        // Deep stop band well past the transition.
        assert!(fir.response_at(6_000.0, fs) < 1e-3);
        assert!(fir.response_at(20_000.0, fs) < 1e-3);
    }

    #[test]
    fn apply_attenuates_out_of_band_tone() {
        let fs = 10_000.0;
        let fir = Fir::lowpass(101, 500.0, fs);
        let n = 2_000;
        let low: Vec<f64> = (0..n)
            .map(|i| (TAU * 100.0 * i as f64 / fs).sin())
            .collect();
        let high: Vec<f64> = (0..n)
            .map(|i| (TAU * 3_000.0 * i as f64 / fs).sin())
            .collect();
        let rms = |xs: &[f64]| {
            (xs[200..n - 200].iter().map(|x| x * x).sum::<f64>() / (n - 400) as f64).sqrt()
        };
        let low_out = fir.apply(&low);
        let high_out = fir.apply(&high);
        assert!(rms(&low_out) > 0.9 * rms(&low));
        assert!(rms(&high_out) < 0.01 * rms(&high));
    }

    #[test]
    fn complex_apply_matches_real_on_real_input() {
        let fir = Fir::lowpass(51, 1_000.0, 10_000.0);
        let xs: Vec<f64> = (0..256).map(|i| ((i * 37) % 11) as f64 - 5.0).collect();
        let zs: Vec<Complex64> = xs.iter().map(|&x| Complex64::new(x, 0.0)).collect();
        let real = fir.apply(&xs);
        let cplx = fir.apply_complex(&zs);
        for (a, b) in real.iter().zip(&cplx) {
            assert!((a - b.re).abs() < 1e-12 && b.im.abs() < 1e-12);
        }
    }

    #[test]
    fn delay_compensation_keeps_alignment() {
        // A step at index 500 stays near index 500 after filtering.
        let fs = 10_000.0;
        let fir = Fir::lowpass(101, 1_000.0, fs);
        let mut xs = vec![0.0; 1000];
        for x in xs.iter_mut().skip(500) {
            *x = 1.0;
        }
        let y = fir.apply(&xs);
        // The 50% crossing of the smoothed step sits within a few samples
        // of 500.
        let crossing = y.iter().position(|&v| v >= 0.5).unwrap();
        assert!((crossing as i64 - 500).abs() <= 3, "crossing at {crossing}");
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_taps_panic() {
        let _ = Fir::lowpass(100, 1_000.0, 10_000.0);
    }

    #[test]
    #[should_panic(expected = "within (0, fs/2)")]
    fn cutoff_beyond_nyquist_panics() {
        let _ = Fir::lowpass(101, 6_000.0, 10_000.0);
    }
}
