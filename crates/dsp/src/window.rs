//! Window functions for spectral estimation.
//!
//! The spectrum-analyzer model multiplies each capture by a window before
//! the FFT; the window trades main-lobe width (frequency resolution) against
//! side-lobe level (dynamic range). FASE needs high dynamic range — weak
//! side-bands next to strong carriers — so the default is Blackman–Harris.
//!
//! Generating a window table costs `n` cosine-series evaluations, and the
//! analyzer needs the same table (plus its coherent gain and ENBW) for every
//! capture of a campaign — so [`Window::tables`] memoizes the whole bundle
//! process-wide, keyed by `(family, length)`. The in-place [`Window::apply`] /
//! [`Window::apply_complex`] helpers and the scalar accessors route through
//! the cache; the raw [`Window::coefficients`] generator stays allocation-
//! fresh for callers that mutate or own the table (FIR design, tests).

use crate::memo::{memoize, Memo};
use std::fmt;
use std::sync::Arc;

/// A window function family.
///
/// # Examples
///
/// ```
/// use fase_dsp::Window;
/// let w = Window::Hann.coefficients(8);
/// assert_eq!(w.len(), 8);
/// assert!(w[0] < 1e-12); // Hann tapers to zero at the edges
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Window {
    /// No tapering; best resolution, worst (-13 dB) side-lobes.
    Rectangular,
    /// Raised cosine; -31.5 dB side-lobes.
    Hann,
    /// Hamming; -42.7 dB side-lobes, does not reach zero at the edges.
    Hamming,
    /// 4-term Blackman–Harris; -92 dB side-lobes. The workspace default.
    #[default]
    BlackmanHarris,
    /// Flat-top (SFT4F-like); very accurate amplitude readout, wide main lobe.
    FlatTop,
}

impl Window {
    /// All window families, for sweep tests and benches.
    pub const ALL: [Window; 5] = [
        Window::Rectangular,
        Window::Hann,
        Window::Hamming,
        Window::BlackmanHarris,
        Window::FlatTop,
    ];

    /// Generates the `n` window coefficients (periodic form, suited to
    /// spectral analysis with averaging).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn coefficients(self, n: usize) -> Vec<f64> {
        assert!(n > 0, "window length must be non-zero");
        let cosines: &[f64] = match self {
            Window::Rectangular => &[1.0],
            Window::Hann => &[0.5, -0.5],
            Window::Hamming => &[0.54, -0.46],
            Window::BlackmanHarris => &[0.35875, -0.48829, 0.14128, -0.01168],
            Window::FlatTop => &[
                0.21557895,
                -0.41663158,
                0.277263158,
                -0.083578947,
                0.006947368,
            ],
        };
        let step = std::f64::consts::TAU / n as f64;
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

    /// Generates `n` *symmetric* window coefficients (filter-design form:
    /// symmetric about `(n−1)/2`, the requirement for linear-phase FIR
    /// taps).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn symmetric_coefficients(self, n: usize) -> Vec<f64> {
        assert!(n > 0, "window length must be non-zero");
        if n == 1 {
            return vec![1.0];
        }
        let cosines: &[f64] = match self {
            Window::Rectangular => &[1.0],
            Window::Hann => &[0.5, -0.5],
            Window::Hamming => &[0.54, -0.46],
            Window::BlackmanHarris => &[0.35875, -0.48829, 0.14128, -0.01168],
            Window::FlatTop => &[
                0.21557895,
                -0.41663158,
                0.277263158,
                -0.083578947,
                0.006947368,
            ],
        };
        let step = std::f64::consts::TAU / (n - 1) as f64;
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

    /// Coherent gain: the mean of the coefficients. A pure tone's measured
    /// amplitude is scaled by this factor; the analyzer divides it back out.
    /// Served from the process-wide table cache.
    pub fn coherent_gain(self, n: usize) -> f64 {
        self.tables(n).coherent_gain()
    }

    /// Normalized equivalent noise bandwidth (ENBW) in bins:
    /// `n·Σw² / (Σw)²`. Converts windowed-FFT bin power to power spectral
    /// density. Served from the process-wide table cache.
    pub fn enbw_bins(self, n: usize) -> f64 {
        self.tables(n).enbw_bins()
    }

    /// Applies the window to a real signal in place, using the cached table.
    ///
    /// # Panics
    ///
    /// Panics if `signal` is empty.
    pub fn apply(self, signal: &mut [f64]) {
        let t = self.tables(signal.len());
        for (x, c) in signal.iter_mut().zip(t.coefficients()) {
            *x *= c;
        }
    }

    /// Applies the window to a complex signal in place, using the cached
    /// table.
    ///
    /// # Panics
    ///
    /// Panics if `signal` is empty.
    pub fn apply_complex(self, signal: &mut [crate::Complex64]) {
        let t = self.tables(signal.len());
        for (z, c) in signal.iter_mut().zip(t.coefficients()) {
            *z = z.scale(*c);
        }
    }

    /// Fetches (or builds and caches) the process-wide precomputed table
    /// bundle for length `n`: the periodic coefficient table plus the
    /// coherent-gain and ENBW scalars derived from it. Hot loops that window
    /// the same length repeatedly (every capture of a campaign) should hold
    /// the returned `Arc` instead of regenerating tables per call. The
    /// memo's lock is never held while building.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn tables(self, n: usize) -> Arc<WindowTables> {
        memoize(&WINDOW_MEMO, (self, n), || {
            Arc::new(WindowTables::build(self, n))
        })
    }
}

/// Table bundles the process-wide memo holds before it starts over: room
/// for every window family at far more distinct lengths than any workload
/// or figure windows.
const WINDOW_MEMO_CAP: usize = 64;

static WINDOW_MEMO: Memo<(Window, usize), Arc<WindowTables>> = Memo::new(
    WINDOW_MEMO_CAP,
    "dsp.window_memo_hits",
    "dsp.window_memo_misses",
);

/// Precomputed per-length window data: the periodic coefficient table and
/// the two scalar calibration factors derived from it. Built once per
/// `(family, length)` per process by [`Window::tables`].
#[derive(Debug, Clone)]
pub struct WindowTables {
    coefficients: Vec<f64>,
    coherent_gain: f64,
    enbw_bins: f64,
}

impl WindowTables {
    fn build(window: Window, n: usize) -> WindowTables {
        let coefficients = window.coefficients(n);
        let sum: f64 = coefficients.iter().sum();
        let sum_sq: f64 = coefficients.iter().map(|x| x * x).sum();
        WindowTables {
            coherent_gain: sum / n as f64,
            enbw_bins: n as f64 * sum_sq / (sum * sum),
            coefficients,
        }
    }

    /// The periodic window coefficients (length as planned).
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// Mean of the coefficients; divides a tone's measured amplitude back
    /// to its true value.
    pub fn coherent_gain(&self) -> f64 {
        self.coherent_gain
    }

    /// Normalized equivalent noise bandwidth in bins.
    pub fn enbw_bins(&self) -> f64 {
        self.enbw_bins
    }

    /// The table length.
    pub fn len(&self) -> usize {
        self.coefficients.len()
    }

    /// Always false — zero-length windows are rejected at construction.
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl fmt::Display for Window {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Window::Rectangular => "rectangular",
            Window::Hann => "hann",
            Window::Hamming => "hamming",
            Window::BlackmanHarris => "blackman-harris",
            Window::FlatTop => "flat-top",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rectangular_is_all_ones() {
        assert!(Window::Rectangular
            .coefficients(10)
            .iter()
            .all(|&c| (c - 1.0).abs() < 1e-15));
        assert!((Window::Rectangular.coherent_gain(64) - 1.0).abs() < 1e-15);
        assert!((Window::Rectangular.enbw_bins(64) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn hann_known_values() {
        let w = Window::Hann.coefficients(8);
        // Periodic Hann: w[i] = 0.5 - 0.5 cos(2πi/8)
        assert!(w[0].abs() < 1e-15);
        assert!((w[4] - 1.0).abs() < 1e-15);
        assert!((w[2] - 0.5).abs() < 1e-15);
        // ENBW of Hann is 1.5 bins.
        assert!((Window::Hann.enbw_bins(1024) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn coherent_gains_match_literature() {
        // Periodic-window coherent gains (sum of cosine a0 terms).
        assert!((Window::Hann.coherent_gain(4096) - 0.5).abs() < 1e-9);
        assert!((Window::Hamming.coherent_gain(4096) - 0.54).abs() < 1e-9);
        assert!((Window::BlackmanHarris.coherent_gain(4096) - 0.35875).abs() < 1e-9);
    }

    #[test]
    fn enbw_ordering() {
        // Wider main lobes => larger ENBW.
        let n = 4096;
        let rect = Window::Rectangular.enbw_bins(n);
        let hann = Window::Hann.enbw_bins(n);
        let bh = Window::BlackmanHarris.enbw_bins(n);
        let ft = Window::FlatTop.enbw_bins(n);
        assert!(rect < hann && hann < bh && bh < ft);
        // Blackman-Harris ENBW ≈ 2.0 bins.
        assert!((bh - 2.0).abs() < 0.05, "bh enbw = {bh}");
    }

    #[test]
    fn windows_are_symmetric_about_center() {
        for win in Window::ALL {
            let n = 64;
            let w = win.coefficients(n);
            for i in 1..n {
                assert!(
                    (w[i] - w[n - i]).abs() < 1e-12,
                    "{win} not periodic-symmetric at {i}"
                );
            }
        }
    }

    #[test]
    fn symmetric_window_is_mirror_symmetric() {
        for win in Window::ALL {
            for n in [7usize, 8, 63] {
                let w = win.symmetric_coefficients(n);
                for i in 0..n {
                    assert!(
                        (w[i] - w[n - 1 - i]).abs() < 1e-12,
                        "{win} length {n} asymmetric at {i}"
                    );
                }
            }
            assert_eq!(win.symmetric_coefficients(1), vec![1.0]);
        }
    }

    #[test]
    fn apply_scales_signal() {
        let mut x = vec![2.0; 8];
        Window::Hann.apply(&mut x);
        let w = Window::Hann.coefficients(8);
        for (a, c) in x.iter().zip(&w) {
            assert!((a - 2.0 * c).abs() < 1e-15);
        }
    }

    #[test]
    fn apply_complex_scales_signal() {
        use crate::Complex64;
        let mut x = vec![Complex64::new(1.0, -1.0); 8];
        Window::BlackmanHarris.apply_complex(&mut x);
        let w = Window::BlackmanHarris.coefficients(8);
        for (z, c) in x.iter().zip(&w) {
            assert!((z.re - c).abs() < 1e-15 && (z.im + c).abs() < 1e-15);
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_length_window_panics() {
        let _ = Window::Hann.coefficients(0);
    }

    #[test]
    fn cached_tables_match_fresh_generation() {
        for win in Window::ALL {
            for n in [8usize, 255, 4096] {
                let t = win.tables(n);
                let fresh = win.coefficients(n);
                assert_eq!(t.coefficients(), fresh.as_slice(), "{win} n={n}");
                let gain: f64 = fresh.iter().sum::<f64>() / n as f64;
                assert!((t.coherent_gain() - gain).abs() < 1e-15);
                let sum: f64 = fresh.iter().sum();
                let sum_sq: f64 = fresh.iter().map(|x| x * x).sum();
                let enbw = n as f64 * sum_sq / (sum * sum);
                assert!((t.enbw_bins() - enbw).abs() < 1e-15);
                // Same Arc on the second fetch — no regeneration.
                assert!(Arc::ptr_eq(&t, &win.tables(n)));
            }
        }
    }

    #[test]
    fn cached_tables_are_shared_across_threads() {
        let fetch = || {
            std::thread::spawn(|| Window::FlatTop.tables(96))
                .join()
                .unwrap()
        };
        assert!(Arc::ptr_eq(&fetch(), &fetch()));
    }
}
