//! The two window functions the workspace uses, both evaluated by one
//! cosine-series generator.
//!
//! * **Blackman–Harris** (4-term, −92 dB side-lobes) shapes every capture
//!   the calibrated spectrum estimator ([`crate::Spectrum::from_capture`])
//!   reads: FASE needs high dynamic range — weak side-bands next to strong
//!   carriers. Generating a table costs `n` cosine-series evaluations and
//!   every capture of a campaign needs the same one (plus its coherent gain
//!   and ENBW), so [`blackman_harris`] memoizes the whole bundle
//!   process-wide, keyed by length.
//! * **Hann** (raised cosine, −31.5 dB side-lobes): the periodic form
//!   frames [`crate::demod::spectrogram`], the symmetric form tapers
//!   [`crate::fir::Fir::lowpass`]'s taps.

use crate::memo::{memoize, Memo};
use std::sync::Arc;

/// 4-term Blackman–Harris cosine-series coefficients.
const BLACKMAN_HARRIS: [f64; 4] = [0.35875, -0.48829, 0.14128, -0.01168];

/// Hann cosine-series coefficients.
const HANN: [f64; 2] = [0.5, -0.5];

/// Evaluates `Σ_k a_k·cos(k·2πi/period)` for `i` in `0..n`.
fn cosine_series(cosines: &[f64], n: usize, period: f64) -> Vec<f64> {
    let step = std::f64::consts::TAU / period;
    (0..n)
        .map(|i| {
            let x = i as f64 * step;
            cosines
                .iter()
                .enumerate()
                .map(|(k, a)| a * (k as f64 * x).cos())
                .sum()
        })
        .collect()
}

/// The `n`-point periodic Hann window (spectral-analysis form).
///
/// # Panics
///
/// Panics if `n` is zero.
pub(crate) fn hann(n: usize) -> Vec<f64> {
    assert!(n > 0, "window length must be non-zero");
    cosine_series(&HANN, n, n as f64)
}

/// The `n`-point symmetric Hann window (filter-design form: symmetric
/// about `(n−1)/2`, the requirement for linear-phase FIR taps).
///
/// # Panics
///
/// Panics if `n` is zero.
pub(crate) fn symmetric_hann(n: usize) -> Vec<f64> {
    assert!(n > 0, "window length must be non-zero");
    if n == 1 {
        return vec![1.0];
    }
    cosine_series(&HANN, n, (n - 1) as f64)
}

/// Fetches (or builds and caches) the process-wide periodic
/// Blackman–Harris table bundle for length `n`: the coefficients plus the
/// coherent-gain and ENBW scalars derived from them. The memo's lock is
/// never held while building.
///
/// # Examples
///
/// ```
/// let t = fase_dsp::window::blackman_harris(4096);
/// assert_eq!(t.coefficients().len(), 4096);
/// assert!((t.coherent_gain() - 0.35875).abs() < 1e-9);
/// ```
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn blackman_harris(n: usize) -> Arc<WindowTables> {
    memoize(&WINDOW_MEMO, n, || Arc::new(WindowTables::build(n)))
}

/// Table bundles the process-wide memo holds before it starts over: far
/// more distinct lengths than any workload or figure windows.
const WINDOW_MEMO_CAP: usize = 64;

static WINDOW_MEMO: Memo<usize, Arc<WindowTables>> = Memo::new(
    WINDOW_MEMO_CAP,
    "dsp.window_memo_hits",
    "dsp.window_memo_misses",
);

/// Precomputed per-length Blackman–Harris data: the periodic coefficient
/// table and the two scalar calibration factors derived from it. Built
/// once per length per process by [`blackman_harris`].
#[derive(Debug, Clone)]
pub struct WindowTables {
    coefficients: Vec<f64>,
    coherent_gain: f64,
    enbw_bins: f64,
}

impl WindowTables {
    fn build(n: usize) -> WindowTables {
        assert!(n > 0, "window length must be non-zero");
        let coefficients = cosine_series(&BLACKMAN_HARRIS, n, n as f64);
        let sum: f64 = coefficients.iter().sum();
        let sum_sq: f64 = coefficients.iter().map(|x| x * x).sum();
        WindowTables {
            coherent_gain: sum / n as f64,
            enbw_bins: n as f64 * sum_sq / (sum * sum),
            coefficients,
        }
    }

    /// The periodic window coefficients.
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// Coherent gain, the mean of the coefficients: a pure tone's measured
    /// amplitude is scaled by this factor, and the estimator divides it
    /// back out.
    pub fn coherent_gain(&self) -> f64 {
        self.coherent_gain
    }

    /// Normalized equivalent noise bandwidth in bins, `n·Σw² / (Σw)²`:
    /// converts windowed-FFT bin power to power spectral density.
    pub fn enbw_bins(&self) -> f64 {
        self.enbw_bins
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hann_known_values() {
        let w = hann(8);
        // Periodic Hann: w[i] = 0.5 - 0.5 cos(2πi/8)
        assert!(w[0].abs() < 1e-15);
        assert!((w[4] - 1.0).abs() < 1e-15);
        assert!((w[2] - 0.5).abs() < 1e-15);
    }

    #[test]
    fn blackman_harris_gain_and_enbw_match_literature() {
        let t = blackman_harris(4096);
        // Periodic coherent gain is the cosine series' a0 term.
        assert!((t.coherent_gain() - 0.35875).abs() < 1e-9);
        // Blackman–Harris ENBW ≈ 2.0 bins, wider than Hann's 1.5.
        assert!(
            (t.enbw_bins() - 2.0).abs() < 0.05,
            "bh enbw = {}",
            t.enbw_bins()
        );
    }

    #[test]
    fn windows_are_symmetric_about_center() {
        let n = 64;
        for w in [hann(n), blackman_harris(n).coefficients().to_vec()] {
            for i in 1..n {
                assert!(
                    (w[i] - w[n - i]).abs() < 1e-12,
                    "not periodic-symmetric at {i}"
                );
            }
        }
    }

    #[test]
    fn symmetric_window_is_mirror_symmetric() {
        for n in [7usize, 8, 63] {
            let w = symmetric_hann(n);
            for i in 0..n {
                assert!(
                    (w[i] - w[n - 1 - i]).abs() < 1e-12,
                    "length {n} asymmetric at {i}"
                );
            }
        }
        assert_eq!(symmetric_hann(1), vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_length_window_panics() {
        let _ = hann(0);
    }

    #[test]
    fn cached_tables_match_fresh_generation() {
        for n in [8usize, 255, 4096] {
            let t = blackman_harris(n);
            let fresh = cosine_series(&BLACKMAN_HARRIS, n, n as f64);
            assert_eq!(t.coefficients(), fresh.as_slice(), "n={n}");
            let sum: f64 = fresh.iter().sum();
            let sum_sq: f64 = fresh.iter().map(|x| x * x).sum();
            assert!((t.coherent_gain() - sum / n as f64).abs() < 1e-15);
            assert!((t.enbw_bins() - n as f64 * sum_sq / (sum * sum)).abs() < 1e-15);
            // Same Arc on the second fetch — no regeneration.
            assert!(Arc::ptr_eq(&t, &blackman_harris(n)));
        }
    }

    #[test]
    fn cached_tables_are_shared_across_threads() {
        let fetch = || std::thread::spawn(|| blackman_harris(96)).join().unwrap();
        assert!(Arc::ptr_eq(&fetch(), &fetch()));
    }
}
