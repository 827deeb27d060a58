//! Fast Fourier transforms, implemented from scratch.
//!
//! Three algorithms cover every size the workspace needs:
//!
//! * an iterative, cache-friendly **radix-2 Cooley–Tukey** transform for
//!   power-of-two sizes (the common case — capture lengths are chosen as
//!   powers of two),
//! * **Bluestein's chirp-z algorithm** for arbitrary sizes, built on top of
//!   the radix-2 kernel, and
//! * a **real-input FFT** ([`RfftPlan`]) that packs N real samples into N/2
//!   complex ones, runs the half-size complex transform and untangles the
//!   halves with one post-split pass — half the butterfly work of the
//!   complex path for real signals.
//!
//! A [`FftPlan`] precomputes twiddle factors and bit-reversal tables once and
//! can then transform any number of buffers of the planned length. Repeated
//! transforms of the same length avoid re-planning entirely through the
//! per-thread caches ([`cached_plan`], [`cached_rfft_plan`]); Bluestein
//! transforms reuse their convolution workspace across calls via
//! [`FftScratch`] — the one-shot entry points ([`FftPlan::transform`],
//! [`fft`], [`ifft`], [`rfft`]) borrow a per-thread scratch so
//! even "plan-less" callers stop paying a workspace allocation per call.
//! Cache traffic is observable through the `dsp.plan_cache_hits` /
//! `dsp.plan_cache_misses` counters.

use crate::complex::Complex64;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::f64::consts::PI;
use std::rc::Rc;

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
        inner.forward_with(&mut filter, &mut FftScratch::new());
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

    /// True only for the degenerate length-1 plan... which is never empty;
    /// provided for clippy-friendliness alongside [`FftPlan::len`].
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
    /// Borrows the calling thread's shared [`FftScratch`], so repeated
    /// one-shot Bluestein transforms reuse one convolution workspace
    /// instead of allocating a fresh buffer per call. Hot paths that want
    /// their own workspace lifetime can still hold a [`FftScratch`] and
    /// call [`FftPlan::transform_with`].
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.len()`.
    pub fn transform(&self, data: &mut [Complex64], direction: Direction) {
        SHARED_SCRATCH.with(|cell| match cell.try_borrow_mut() {
            Ok(mut scratch) => self.transform_with(data, direction, &mut scratch),
            // Unexpected reentrancy (the scratch is already lent out
            // higher up this thread's stack): fall back to a private
            // workspace rather than panicking.
            Err(_) => self.transform_with(data, direction, &mut FftScratch::new()),
        });
    }

    /// In-place forward transform reusing `scratch` for intermediates.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.len()`.
    pub fn forward_with(&self, data: &mut [Complex64], scratch: &mut FftScratch) {
        self.transform_with(data, Direction::Forward, scratch);
    }

    /// In-place inverse transform (scaled by `1/N`) reusing `scratch`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.len()`.
    pub fn inverse_with(&self, data: &mut [Complex64], scratch: &mut FftScratch) {
        self.transform_with(data, Direction::Inverse, scratch);
    }

    /// In-place transform in the given direction, reusing `scratch` for any
    /// intermediate buffers.
    ///
    /// Power-of-two plans work fully in place and never touch the scratch;
    /// Bluestein plans borrow their `m`-point convolution buffer from it,
    /// growing it on first use and reusing the capacity afterwards. One
    /// scratch can serve plans of different lengths.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.len()`.
    pub fn transform_with(
        &self,
        data: &mut [Complex64],
        direction: Direction,
        scratch: &mut FftScratch,
    ) {
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
                bluestein(data, inner, chirp, filter_fft, scratch);
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

/// Reusable workspace for [`FftPlan::transform_with`].
///
/// Bluestein (arbitrary-length) transforms need an `m`-point convolution
/// buffer where `m = (2n-1).next_power_of_two()`. Allocating it per call
/// dominates small repeated transforms; a scratch amortizes the allocation
/// across calls. The buffer grows to the largest length requested and is
/// then reused, so a single scratch can serve plans of mixed sizes.
#[derive(Debug, Default, Clone)]
pub struct FftScratch {
    buf: Vec<Complex64>,
}

impl FftScratch {
    /// Creates an empty scratch; the workspace grows lazily on first use.
    pub fn new() -> FftScratch {
        FftScratch::default()
    }

    /// Returns a zeroed buffer of exactly `len` elements, reusing capacity.
    fn zeroed(&mut self, len: usize) -> &mut [Complex64] {
        self.buf.clear();
        self.buf.resize(len, Complex64::ZERO);
        &mut self.buf
    }
}

thread_local! {
    static PLAN_CACHE: RefCell<BTreeMap<usize, Rc<FftPlan>>> =
        const { RefCell::new(BTreeMap::new()) };
    static RFFT_PLAN_CACHE: RefCell<BTreeMap<usize, Rc<RfftPlan>>> =
        const { RefCell::new(BTreeMap::new()) };
    /// Workspace shared by the one-shot entry points ([`FftPlan::transform`]
    /// and friends) so a thread's repeated plan-less Bluestein transforms
    /// reuse one convolution buffer.
    static SHARED_SCRATCH: RefCell<FftScratch> = const { RefCell::new(FftScratch { buf: Vec::new() }) };
}

/// Fetches (or creates and caches) the current thread's plan of length `n`.
///
/// Planning a transform costs O(n log n) trigonometric evaluations — for
/// repeated segment captures of the same length that re-planning dwarfs the
/// transform itself. Plans are cached per thread, so worker threads in a
/// capture pool each build their own table once and never contend on a lock.
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
/// assert!(std::rc::Rc::ptr_eq(&plan, &cached_plan(8)));
/// ```
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn cached_plan(n: usize) -> Rc<FftPlan> {
    PLAN_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some(plan) = cache.get(&n) {
            fase_obs::Recorder::global().count("dsp.plan_cache_hits", 1);
            return Rc::clone(plan);
        }
        fase_obs::Recorder::global().count("dsp.plan_cache_misses", 1);
        let plan = Rc::new(FftPlan::new(n));
        cache.insert(n, Rc::clone(&plan));
        plan
    })
}

/// Fetches (or creates and caches) the current thread's real-input plan of
/// length `n`. The half-size inner complex plan is shared with
/// [`cached_plan`] users, so a real and a complex transform of related
/// lengths plan their butterfly tables only once. Cache traffic counts into
/// `dsp.plan_cache_hits` / `dsp.plan_cache_misses` like the complex cache.
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn cached_rfft_plan(n: usize) -> Rc<RfftPlan> {
    RFFT_PLAN_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some(plan) = cache.get(&n) {
            fase_obs::Recorder::global().count("dsp.plan_cache_hits", 1);
            return Rc::clone(plan);
        }
        fase_obs::Recorder::global().count("dsp.plan_cache_misses", 1);
        let plan = Rc::new(RfftPlan::with_planner(n, cached_plan));
        cache.insert(n, Rc::clone(&plan));
        plan
    })
}

/// A reusable real-input FFT plan for a fixed length.
///
/// For even `n` the transform packs the `n` real samples into `n/2` complex
/// ones (`z[k] = x[2k] + j·x[2k+1]`), runs the half-size complex FFT, and
/// untangles the interleaved even/odd sub-spectra with one post-split pass —
/// roughly half the butterfly work of the complex path. Odd lengths (and
/// length 1) fall back to the full complex transform so every size is
/// accepted. The output is always the full `n`-point conjugate-symmetric
/// spectrum, interchangeable with running [`FftPlan`] on the zero-imaginary
/// signal (the rfft property tests pin the agreement at 1e-12).
///
/// # Examples
///
/// ```
/// use fase_dsp::fft::RfftPlan;
/// let plan = RfftPlan::new(8);
/// let mut spec = Vec::new();
/// plan.forward(&[1.0; 8], &mut spec);
/// // DC bin holds the sum of the input; all other bins are zero.
/// assert!((spec[0].re - 8.0).abs() < 1e-12);
/// assert!(spec[1].norm() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct RfftPlan {
    n: usize,
    kind: RfftKind,
}

#[derive(Debug, Clone)]
enum RfftKind {
    /// Odd lengths (and 1): transform the zero-imaginary signal directly.
    Direct(Rc<FftPlan>),
    /// Even lengths: pack into `n/2` complex samples, FFT, post-split.
    Split {
        /// Complex plan of length `n/2` over the packed samples.
        half: Rc<FftPlan>,
        /// Post-split twiddles `e^{-j2πk/n}` for `k in 0..=n/4`.
        twiddles: Vec<Complex64>,
    },
}

impl RfftPlan {
    /// Plans a real-input transform of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> RfftPlan {
        Self::with_planner(n, |m| Rc::new(FftPlan::new(m)))
    }

    /// Plans via `plan_for`, which supplies the inner complex plan — the
    /// cache route ([`cached_rfft_plan`]) passes [`cached_plan`] here so
    /// the half-size plan is shared with complex users of that length.
    fn with_planner(n: usize, plan_for: impl Fn(usize) -> Rc<FftPlan>) -> RfftPlan {
        assert!(n > 0, "FFT length must be non-zero");
        if !n.is_multiple_of(2) {
            return RfftPlan {
                n,
                kind: RfftKind::Direct(plan_for(n)),
            };
        }
        let h = n / 2;
        let twiddles = (0..=h / 2)
            .map(|k| Complex64::cis(-2.0 * PI * k as f64 / n as f64))
            .collect();
        RfftPlan {
            n,
            kind: RfftKind::Split {
                half: plan_for(h),
                twiddles,
            },
        }
    }

    /// The planned length (of both the real input and the complex output).
    pub fn len(&self) -> usize {
        self.n
    }

    /// Never empty; provided for clippy-friendliness alongside
    /// [`RfftPlan::len`].
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Forward transform of `signal`, writing the full spectrum into `out`.
    ///
    /// Borrows the calling thread's shared [`FftScratch`] like
    /// [`FftPlan::transform`]; hot paths that own a scratch should call
    /// [`RfftPlan::forward_with`].
    ///
    /// # Panics
    ///
    /// Panics if `signal.len() != self.len()`.
    pub fn forward(&self, signal: &[f64], out: &mut Vec<Complex64>) {
        SHARED_SCRATCH.with(|cell| match cell.try_borrow_mut() {
            Ok(mut scratch) => self.forward_with(signal, out, &mut scratch),
            Err(_) => self.forward_with(signal, out, &mut FftScratch::new()),
        });
    }

    /// Forward transform reusing `scratch`, writing the full
    /// conjugate-symmetric spectrum into `out` (cleared and resized to the
    /// planned length; existing capacity is reused).
    ///
    /// # Panics
    ///
    /// Panics if `signal.len() != self.len()`.
    pub fn forward_with(&self, signal: &[f64], out: &mut Vec<Complex64>, scratch: &mut FftScratch) {
        assert_eq!(signal.len(), self.n, "buffer length must match plan length");
        out.clear();
        match &self.kind {
            RfftKind::Direct(plan) => {
                out.extend(signal.iter().map(|&x| Complex64::new(x, 0.0)));
                plan.transform_with(out, Direction::Forward, scratch);
            }
            RfftKind::Split { half, twiddles } => {
                let h = self.n / 2;
                for pair in signal.chunks_exact(2) {
                    if let [re, im] = pair {
                        out.push(Complex64::new(*re, *im));
                    }
                }
                half.transform_with(out, Direction::Forward, scratch);
                out.resize(self.n, Complex64::ZERO);
                // k = 0: X[0] and X[h] come straight from Z[0]; both are
                // purely real by conjugate symmetry.
                if let Some(z0) = out.first().copied() {
                    if let Some(slot) = out.first_mut() {
                        *slot = Complex64::new(z0.re + z0.im, 0.0);
                    }
                    out[h] = Complex64::new(z0.re - z0.im, 0.0);
                }
                // Untangle: E_k = (Z[k] + Z*[h-k])/2 is the spectrum of the
                // even samples, O_k = -j(Z[k] - Z*[h-k])/2 of the odd ones;
                // X[k] = E_k + w^k·O_k, X[k+h] = E_k - w^k·O_k, and the two
                // remaining quadrants follow from X[n-k] = X*[k]. At
                // k = h/2 the four slots pairwise coincide and the writes
                // agree, so the quad-write stays consistent.
                for (k, &w) in twiddles.iter().enumerate().skip(1) {
                    let za = out[k];
                    let zb = out[h - k].conj();
                    let even = (za + zb).scale(0.5);
                    let odd = (za - zb) * Complex64::new(0.0, -0.5);
                    let t = w * odd;
                    let xk = even + t;
                    let xhk = even - t;
                    out[k] = xk;
                    out[self.n - k] = xk.conj();
                    out[h + k] = xhk;
                    out[h - k] = xhk.conj();
                }
            }
        }
    }
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
    scratch: &mut FftScratch,
) {
    let n = data.len();
    let m = inner.len();
    let a = scratch.zeroed(m);
    for k in 0..n {
        a[k] = data[k] * chirp[k];
    }
    // The inner plan is always power-of-two, so it never touches a scratch;
    // hand it a throwaway (which stays unallocated) instead of re-borrowing
    // the thread-shared one we may be holding right now.
    let mut inner_scratch = FftScratch::new();
    inner.forward_with(a, &mut inner_scratch);
    for (z, f) in a.iter_mut().zip(filter_fft) {
        *z *= *f;
    }
    inner.inverse_with(a, &mut inner_scratch);
    for k in 0..n {
        data[k] = a[k] * chirp[k];
    }
}

/// One-shot forward FFT of a real signal through the packed real-input path.
///
/// Equivalent to [`fft`] of the zero-imaginary signal but with roughly half
/// the butterfly work for even lengths; uses the per-thread rfft plan cache
/// and shared scratch so repeated same-length calls re-plan nothing.
///
/// # Panics
///
/// Panics if `signal` is empty.
pub fn rfft(signal: &[f64]) -> Vec<Complex64> {
    let mut out = Vec::with_capacity(signal.len());
    cached_rfft_plan(signal.len()).forward(signal, &mut out);
    out
}

/// One-shot forward FFT of a complex signal, out of place.
///
/// Plans through the per-thread cache, so repeated same-length calls pay
/// only the transform itself.
pub fn fft(signal: &[Complex64]) -> Vec<Complex64> {
    let mut data = signal.to_vec();
    cached_plan(data.len()).forward(&mut data);
    data
}

/// One-shot inverse FFT of a complex spectrum, out of place (scaled by 1/N).
///
/// Plans through the per-thread cache, so repeated same-length calls pay
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
/// midpoint; see `Spectrum` construction in the analyzers.
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
        for &n in &[3usize, 5, 6, 7, 12, 100, 243, 1000] {
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
    fn rfft_matches_complex_fft_of_real() {
        // Pow2, even non-pow2 (Bluestein halves), odd (Direct fallback),
        // and the len-1/len-2 edge cases.
        for &n in &[1usize, 2, 4, 6, 8, 10, 64, 100, 254, 255, 256, 1000] {
            let x: Vec<f64> = test_signal(n).iter().map(|z| z.re).collect();
            let as_complex: Vec<Complex64> = x.iter().map(|&v| Complex64::new(v, 0.0)).collect();
            let via_rfft = rfft(&x);
            let plan = FftPlan::new(n);
            let mut reference = as_complex.clone();
            plan.forward(&mut reference);
            assert_close(&via_rfft, &reference, 1e-12);
        }
    }

    #[test]
    fn rfft_spectrum_is_conjugate_symmetric() {
        for &n in &[8usize, 9, 100] {
            let x: Vec<f64> = test_signal(n).iter().map(|z| z.im).collect();
            let spec = rfft(&x);
            for k in 1..n {
                let delta = spec[k] - spec[n - k].conj();
                assert!(delta.norm() < 1e-9, "n={n} bin {k} breaks symmetry");
            }
            assert!(spec[0].im.abs() < 1e-12, "n={n}: DC must be real");
        }
    }

    #[test]
    fn cached_rfft_plan_is_shared_and_counted() {
        // Deltas, not absolutes: the recorder is process-global and other
        // tests run in parallel, so only >= assertions on our own traffic
        // are safe. An unusual length keeps cross-test interference from
        // turning our expected miss into a hit.
        fase_obs::enable();
        let before = fase_obs::snapshot();
        let hits0 = before
            .counters
            .get("dsp.plan_cache_hits")
            .copied()
            .unwrap_or(0);
        let a = cached_rfft_plan(1962);
        let b = cached_rfft_plan(1962);
        assert!(Rc::ptr_eq(&a, &b));
        let after = fase_obs::snapshot();
        let hits1 = after
            .counters
            .get("dsp.plan_cache_hits")
            .copied()
            .unwrap_or(0);
        let misses1 = after
            .counters
            .get("dsp.plan_cache_misses")
            .copied()
            .unwrap_or(0);
        assert!(hits1 > hits0, "second fetch must record a cache hit");
        assert!(misses1 >= 1, "first-ever fetch must record a miss");
        // The half-size complex plan is shared with the complex cache.
        let half = cached_plan(981);
        let x = test_signal(981);
        let mut via_shared = x.clone();
        half.forward(&mut via_shared);
        assert_close(&via_shared, &fft(&x), 0.0);
    }

    #[test]
    fn one_shot_bluestein_reuses_thread_scratch() {
        // Same-length repeated one-shot transforms must agree bit-for-bit
        // with a plan driven through a private scratch (i.e. the shared
        // scratch is state-free between calls).
        let x = test_signal(99);
        let first = fft(&x);
        let second = fft(&x);
        assert_close(&first, &second, 0.0);
        let mut scratch = FftScratch::new();
        let mut private = x.clone();
        FftPlan::new(99).forward_with(&mut private, &mut scratch);
        assert_close(&second, &private, 0.0);
    }

    #[test]
    fn scratch_transform_matches_plain() {
        let mut scratch = FftScratch::new();
        // Mixed sizes through ONE scratch: pow2 (ignores it) and Bluestein.
        for &n in &[8usize, 100, 17, 1000, 100] {
            let plan = FftPlan::new(n);
            let x = test_signal(n);
            let mut plain = x.clone();
            let mut scratched = x.clone();
            plan.forward(&mut plain);
            plan.forward_with(&mut scratched, &mut scratch);
            assert_close(&scratched, &plain, 0.0);
            plan.inverse(&mut plain);
            plan.inverse_with(&mut scratched, &mut scratch);
            assert_close(&scratched, &plain, 0.0);
            assert_close(&scratched, &x, 1e-10);
        }
    }

    #[test]
    fn cached_plan_returns_shared_plan() {
        let a = cached_plan(240);
        let b = cached_plan(240);
        assert!(Rc::ptr_eq(&a, &b));
        assert_eq!(a.len(), 240);
        let x = test_signal(240);
        let mut via_cache = x.clone();
        a.forward(&mut via_cache);
        assert_close(&via_cache, &fft(&x), 0.0);
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
