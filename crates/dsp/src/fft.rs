//! Fast Fourier transforms, implemented from scratch.
//!
//! Two algorithms cover every size:
//!
//! * an iterative, cache-friendly **radix-2 Cooley–Tukey** transform for
//!   power-of-two sizes (every capture the workspace plans is a power of
//!   two), and
//! * **Bluestein's chirp-z algorithm** for arbitrary sizes, built on top of
//!   the radix-2 kernel.
//!
//! A [`FftPlan`] precomputes twiddle factors and bit-reversal tables once and
//! can then transform any number of buffers of the planned length. Repeated
//! transforms of the same length avoid re-planning entirely through the
//! process-wide cache behind [`cached_plan`], which the one-shot entry points
//! ([`fft`], [`ifft`]) use. Cache traffic is observable through the
//! `dsp.plan_cache_hits` / `dsp.plan_cache_misses` counters.

use crate::complex::Complex64;
use crate::memo::{memoize, Memo};
use std::f64::consts::PI;
use std::sync::Arc;

/// Direction of a transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Time → frequency, `X[k] = Σ x[n]·e^{-j2πkn/N}` (no scaling).
    Forward,
    /// Frequency → time, scaled by `1/N` so that `inverse(forward(x)) == x`.
    Inverse,
}

/// A reusable FFT plan for a fixed length.
///
/// # Examples
///
/// ```
/// use fase_dsp::{Complex64, FftPlan};
/// let plan = FftPlan::new(8);
/// let mut data = vec![Complex64::ONE; 8];
/// plan.forward(&mut data);
/// // DC bin holds the sum of the input; all other bins are zero.
/// assert!((data[0].re - 8.0).abs() < 1e-12);
/// assert!(data[1].norm() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    kind: PlanKind,
}

#[derive(Debug, Clone)]
enum PlanKind {
    Trivial,
    Radix2 {
        /// Twiddles `e^{-jπk/m}` for each stage, flattened.
        twiddles: Vec<Complex64>,
        /// Bit-reversal permutation.
        rev: Vec<usize>,
    },
    Bluestein {
        /// Inner power-of-two convolution plan of length `m >= 2n-1`.
        inner: Box<FftPlan>,
        /// Chirp `e^{-jπk²/n}` for k in 0..n.
        chirp: Vec<Complex64>,
        /// Forward FFT of the zero-padded conjugate chirp filter.
        filter_fft: Vec<Complex64>,
    },
}

impl FftPlan {
    /// Plans a transform of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> FftPlan {
        assert!(n > 0, "FFT length must be non-zero");
        if n == 1 {
            return FftPlan {
                n,
                kind: PlanKind::Trivial,
            };
        }
        if n.is_power_of_two() {
            FftPlan {
                n,
                kind: Self::plan_radix2(n),
            }
        } else {
            FftPlan {
                n,
                kind: Self::plan_bluestein(n),
            }
        }
    }

    fn plan_radix2(n: usize) -> PlanKind {
        let bits = n.trailing_zeros();
        let mut rev = vec![0usize; n];
        for (i, r) in rev.iter_mut().enumerate() {
            *r = i.reverse_bits() >> (usize::BITS - bits);
        }
        // Stage `s` (half-size m = 2^s) needs m twiddles; total n-1.
        let mut twiddles = Vec::with_capacity(n - 1);
        let mut m = 1;
        while m < n {
            for k in 0..m {
                twiddles.push(Complex64::cis(-PI * k as f64 / m as f64));
            }
            m *= 2;
        }
        PlanKind::Radix2 { twiddles, rev }
    }

    fn plan_bluestein(n: usize) -> PlanKind {
        let m = (2 * n - 1).next_power_of_two();
        let inner = Box::new(FftPlan::new(m));
        // chirp[k] = e^{-jπk²/n}; use modular arithmetic on k² to keep the
        // angle argument small and precise for large n.
        let chirp: Vec<Complex64> = (0..n)
            .map(|k| {
                // fase-lint: allow(U-cast) -- usize→u128 widening is lossless; 128-bit modular arithmetic keeps k² exact for any transform length
                let k2 = (k as u128 * k as u128) % (2 * n as u128);
                Complex64::cis(-PI * k2 as f64 / n as f64)
            })
            .collect();
        let mut filter = vec![Complex64::ZERO; m];
        if let (Some(f0), Some(c0)) = (filter.first_mut(), chirp.first()) {
            *f0 = c0.conj();
        }
        for k in 1..n {
            let c = chirp[k].conj();
            filter[k] = c;
            filter[m - k] = c;
        }
        inner.forward(&mut filter);
        PlanKind::Bluestein {
            inner,
            chirp,
            filter_fft: filter,
        }
    }

    /// The planned transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false: a plan has at least one point ([`FftPlan::new`] rejects
    /// zero). Provided alongside [`FftPlan::len`].
    pub fn is_empty(&self) -> bool {
        false
    }

    /// In-place forward transform.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.len()`.
    pub fn forward(&self, data: &mut [Complex64]) {
        self.transform(data, Direction::Forward);
    }

    /// In-place inverse transform (scaled by `1/N`).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.len()`.
    pub fn inverse(&self, data: &mut [Complex64]) {
        self.transform(data, Direction::Inverse);
    }

    /// In-place transform in the given direction.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.len()`.
    pub fn transform(&self, data: &mut [Complex64], direction: Direction) {
        assert_eq!(data.len(), self.n, "buffer length must match plan length");
        // Every public FFT entry point funnels through here, so this is
        // the one choke point for the executed-FFT counters. They count
        // physical transform executions: a Bluestein plan contributes its
        // own entry plus the two inner power-of-two convolution FFTs.
        let obs = fase_obs::Recorder::global();
        obs.count("dsp.fft", 1);
        obs.count_usize("dsp.fft_points", self.n);
        match (&self.kind, direction) {
            (PlanKind::Trivial, _) => {}
            (PlanKind::Radix2 { twiddles, rev }, dir) => {
                if dir == Direction::Inverse {
                    conjugate(data);
                }
                radix2_in_place(data, twiddles, rev);
                if dir == Direction::Inverse {
                    conjugate(data);
                    let inv_n = 1.0 / self.n as f64;
                    for z in data.iter_mut() {
                        *z = z.scale(inv_n);
                    }
                }
            }
            (
                PlanKind::Bluestein {
                    inner,
                    chirp,
                    filter_fft,
                },
                dir,
            ) => {
                if dir == Direction::Inverse {
                    conjugate(data);
                }
                bluestein(data, inner, chirp, filter_fft);
                if dir == Direction::Inverse {
                    conjugate(data);
                    let inv_n = 1.0 / self.n as f64;
                    for z in data.iter_mut() {
                        *z = z.scale(inv_n);
                    }
                }
            }
        }
    }
}

/// Plans the process-wide memo holds before it starts over. Captures plan
/// power-of-two lengths, so every workload and figure plans far fewer
/// distinct lengths than this.
const PLAN_MEMO_CAP: usize = 64;

static PLAN_MEMO: Memo<usize, Arc<FftPlan>> = Memo::new(
    PLAN_MEMO_CAP,
    "dsp.plan_cache_hits",
    "dsp.plan_cache_misses",
);

/// Fetches (or creates and caches) the process-wide plan of length `n`.
///
/// Planning a transform costs O(n log n) trigonometric evaluations — for
/// repeated segment captures of the same length that re-planning dwarfs the
/// transform itself. Plans are shared by every thread and outlive the
/// capture pool's workers, so a length is planned once per process; the
/// memo's lock is never held while planning.
///
/// # Examples
///
/// ```
/// use fase_dsp::{fft::cached_plan, Complex64};
/// let plan = cached_plan(8);
/// let mut data = vec![Complex64::ONE; 8];
/// plan.forward(&mut data);
/// assert!((data[0].re - 8.0).abs() < 1e-12);
/// // The second fetch reuses the same planning work.
/// assert!(std::sync::Arc::ptr_eq(&plan, &cached_plan(8)));
/// ```
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn cached_plan(n: usize) -> Arc<FftPlan> {
    memoize(&PLAN_MEMO, n, || Arc::new(FftPlan::new(n)))
}

fn conjugate(data: &mut [Complex64]) {
    for z in data.iter_mut() {
        *z = z.conj();
    }
}

fn radix2_in_place(data: &mut [Complex64], twiddles: &[Complex64], rev: &[usize]) {
    let n = data.len();
    for (i, &j) in rev.iter().enumerate() {
        if i < j {
            data.swap(i, j);
        }
    }
    let mut m = 1;
    let mut tw_base = 0;
    while m < n {
        let step = 2 * m;
        for start in (0..n).step_by(step) {
            for k in 0..m {
                let w = twiddles[tw_base + k];
                let a = data[start + k];
                let b = data[start + k + m] * w;
                data[start + k] = a + b;
                data[start + k + m] = a - b;
            }
        }
        tw_base += m;
        m = step;
    }
}

fn bluestein(
    data: &mut [Complex64],
    inner: &FftPlan,
    chirp: &[Complex64],
    filter_fft: &[Complex64],
) {
    let n = data.len();
    let mut a = vec![Complex64::ZERO; inner.len()];
    for k in 0..n {
        a[k] = data[k] * chirp[k];
    }
    inner.forward(&mut a);
    for (z, f) in a.iter_mut().zip(filter_fft) {
        *z *= *f;
    }
    inner.inverse(&mut a);
    for k in 0..n {
        data[k] = a[k] * chirp[k];
    }
}

/// One-shot forward FFT of a complex signal, out of place.
///
/// Plans through the process-wide cache, so repeated same-length calls pay
/// only the transform itself.
pub fn fft(signal: &[Complex64]) -> Vec<Complex64> {
    let mut data = signal.to_vec();
    cached_plan(data.len()).forward(&mut data);
    data
}

/// One-shot inverse FFT of a complex spectrum, out of place (scaled by 1/N).
///
/// Plans through the process-wide cache, so repeated same-length calls pay
/// only the transform itself.
pub fn ifft(spectrum: &[Complex64]) -> Vec<Complex64> {
    let mut data = spectrum.to_vec();
    cached_plan(data.len()).inverse(&mut data);
    data
}

/// Rotates a spectrum so that bin 0 (DC) sits at the center of the buffer,
/// with negative frequencies on the left — the layout of a spectrum-analyzer
/// display of complex-baseband data.
///
/// For every length, even or odd, DC lands at index `n / 2` (integer
/// division): `ceil(n/2)` negative-frequency bins precede it and
/// `floor(n/2) - 1` positive ones follow, matching the convention of
/// `numpy.fft.fftshift`. Odd lengths therefore rotate by `n - n/2 =
/// (n + 1) / 2`, NOT by `n / 2` — the off-by-one the even-only formula
/// would hide. Frequency axes built for shifted spectra must use the same
/// midpoint, as `Spectrum::from_capture` does.
pub fn fft_shift<T: Copy>(bins: &mut [T]) {
    let n = bins.len();
    bins.rotate_left(n - n / 2);
}

/// Inverse of [`fft_shift`] for every length: moves the centered DC bin at
/// index `n / 2` back to index 0.
pub fn ifft_shift<T: Copy>(bins: &mut [T]) {
    let n = bins.len();
    bins.rotate_left(n / 2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dft(x: &[Complex64]) -> Vec<Complex64> {
        let n = x.len();
        (0..n)
            .map(|k| {
                (0..n)
                    .map(|t| x[t] * Complex64::cis(-2.0 * PI * (k * t) as f64 / n as f64))
                    .sum()
            })
            .collect()
    }

    fn test_signal(n: usize) -> Vec<Complex64> {
        // Deterministic pseudo-random-ish signal without pulling in rand here.
        (0..n)
            .map(|i| {
                let a = ((i * 2654435761) % 1000) as f64 / 500.0 - 1.0;
                let b = ((i * 40503 + 7) % 1000) as f64 / 500.0 - 1.0;
                Complex64::new(a, b)
            })
            .collect()
    }

    fn assert_close(a: &[Complex64], b: &[Complex64], tol: f64) {
        assert_eq!(a.len(), b.len());
        let scale = b.iter().map(|z| z.norm()).fold(1.0f64, f64::max);
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (*x - *y).norm() <= tol * scale,
                "bin {i}: {x} vs {y} (tol {tol})"
            );
        }
    }

    #[test]
    fn matches_naive_dft_power_of_two() {
        for &n in &[1usize, 2, 4, 8, 64, 256] {
            let x = test_signal(n);
            assert_close(&fft(&x), &naive_dft(&x), 1e-10);
        }
    }

    #[test]
    fn matches_naive_dft_arbitrary_sizes() {
        for &n in &[
            3usize, 5, 6, 7, 9, 10, 12, 17, 30, 31, 100, 127, 243, 254, 255, 500, 1000,
        ] {
            let x = test_signal(n);
            assert_close(&fft(&x), &naive_dft(&x), 1e-9);
        }
    }

    #[test]
    fn inverse_round_trip() {
        for &n in &[2usize, 8, 17, 128, 1000] {
            let x = test_signal(n);
            let y = ifft(&fft(&x));
            assert_close(&y, &x, 1e-10);
        }
    }

    #[test]
    fn parseval_energy_conserved() {
        let n = 512;
        let x = test_signal(n);
        let spec = fft(&x);
        let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let freq_energy: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-12);
    }

    #[test]
    fn impulse_is_flat() {
        let mut x = vec![Complex64::ZERO; 64];
        x[0] = Complex64::ONE;
        let spec = fft(&x);
        for z in &spec {
            assert!((z.norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn pure_tone_lands_in_one_bin() {
        let n = 128;
        let k0 = 5;
        let x: Vec<Complex64> = (0..n)
            .map(|t| Complex64::cis(2.0 * PI * (k0 * t) as f64 / n as f64))
            .collect();
        let spec = fft(&x);
        for (k, z) in spec.iter().enumerate() {
            if k == k0 {
                assert!((z.norm() - n as f64).abs() < 1e-9);
            } else {
                assert!(z.norm() < 1e-9, "leakage at bin {k}");
            }
        }
    }

    #[test]
    fn plan_reuse_is_consistent() {
        let plan = FftPlan::new(100);
        let x = test_signal(100);
        let mut a = x.clone();
        let mut b = x.clone();
        plan.forward(&mut a);
        plan.forward(&mut b);
        assert_close(&a, &b, 0.0);
    }

    #[test]
    fn linearity() {
        let n = 96;
        let x = test_signal(n);
        let y: Vec<Complex64> = test_signal(n).iter().map(|z| z.conj()).collect();
        let sum: Vec<Complex64> = x.iter().zip(&y).map(|(a, b)| *a + *b).collect();
        let lhs = fft(&sum);
        let fx = fft(&x);
        let fy = fft(&y);
        let rhs: Vec<Complex64> = fx.iter().zip(&fy).map(|(a, b)| *a + *b).collect();
        assert_close(&lhs, &rhs, 1e-11);
    }

    #[test]
    fn shift_round_trip_even_and_odd() {
        for n in [1usize, 2, 3, 8, 9, 15] {
            let orig: Vec<usize> = (0..n).collect();
            let mut v = orig.clone();
            fft_shift(&mut v);
            // DC (index 0) must land at the center position n/2, with all
            // ceil(n/2) negative-frequency bins (indices > n/2 pre-shift)
            // to its left in ascending order.
            assert_eq!(v[n / 2], 0, "n={n}: DC not centered");
            for (i, &b) in v.iter().enumerate() {
                let expect = (b + n / 2) % n;
                assert_eq!(i, expect, "n={n}: bin {b} misplaced at {i}");
            }
            ifft_shift(&mut v);
            assert_eq!(v, orig, "n={n}: round trip failed");
        }
    }

    #[test]
    fn cached_plan_returns_shared_plan() {
        let a = cached_plan(240);
        let b = cached_plan(240);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), 240);
        let x = test_signal(240);
        let mut via_cache = x.clone();
        a.forward(&mut via_cache);
        assert_close(&via_cache, &fft(&x), 0.0);
    }

    #[test]
    fn cached_plan_is_shared_across_threads() {
        let fetch = || std::thread::spawn(|| cached_plan(96)).join().unwrap();
        assert!(Arc::ptr_eq(&fetch(), &fetch()));
    }

    #[test]
    #[should_panic(expected = "must match plan length")]
    fn mismatched_length_panics() {
        let plan = FftPlan::new(8);
        let mut data = vec![Complex64::ZERO; 4];
        plan.forward(&mut data);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_length_plan_panics() {
        let _ = FftPlan::new(0);
    }
}
