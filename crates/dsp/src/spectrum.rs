//! The [`Spectrum`] type: a uniformly sampled power spectrum.
//!
//! Every stage of the FASE pipeline communicates through this type — the
//! calibrated estimator [`Spectrum::from_capture`] produces them, the
//! heuristic consumes them, figures are printed from them. Bin values are
//! stored as **linear power in milliwatts** so that averaging (the
//! analyzer averages four captures) and the Eq. (2) ratio are physically
//! meaningful; dBm is a view.

use crate::complex::Complex64;
use crate::fft::{cached_plan, fft_shift};
use crate::units::{Dbm, Hertz};
use crate::window;
use std::cell::RefCell;
use std::fmt;

/// Error type for [`Spectrum`] construction and combination.
#[derive(Debug, Clone, PartialEq)]
pub enum SpectrumError {
    /// The bin vector was empty.
    Empty,
    /// The resolution was zero or negative.
    BadResolution(f64),
    /// A power value was negative or non-finite.
    BadPower {
        /// Index of the offending bin.
        index: usize,
        /// The invalid power value in milliwatts.
        value: f64,
    },
    /// Two spectra did not share a frequency grid.
    GridMismatch,
}

impl fmt::Display for SpectrumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpectrumError::Empty => write!(f, "spectrum must contain at least one bin"),
            SpectrumError::BadResolution(r) => {
                write!(f, "spectrum resolution must be positive, got {r} Hz")
            }
            SpectrumError::BadPower { index, value } => {
                write!(f, "bin {index} holds invalid power {value} mW")
            }
            SpectrumError::GridMismatch => {
                write!(f, "spectra do not share the same frequency grid")
            }
        }
    }
}

impl std::error::Error for SpectrumError {}

/// A uniformly sampled one-sided power spectrum.
///
/// # Examples
///
/// ```
/// use fase_dsp::{Hertz, Spectrum};
/// let s = Spectrum::from_dbm(Hertz(0.0), Hertz(100.0), &[-140.0, -120.0, -140.0])?;
/// assert_eq!(s.len(), 3);
/// assert_eq!(s.frequency_at(1), Hertz(100.0));
/// assert!((s.dbm_at(1).dbm() - -120.0).abs() < 1e-9);
/// # Ok::<(), fase_dsp::SpectrumError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Spectrum {
    start: Hertz,
    resolution: Hertz,
    /// Linear power per bin, in milliwatts.
    power_mw: Vec<f64>,
}

impl Spectrum {
    /// Creates a spectrum from linear bin powers in milliwatts.
    ///
    /// # Errors
    ///
    /// Returns an error if `power_mw` is empty, `resolution` is not
    /// positive, or any power is negative or non-finite.
    pub fn new(
        start: Hertz,
        resolution: Hertz,
        power_mw: Vec<f64>,
    ) -> Result<Spectrum, SpectrumError> {
        if power_mw.is_empty() {
            return Err(SpectrumError::Empty);
        }
        // NaN-rejecting comparison: `!(x > 0.0)` is deliberately not
        // `x <= 0.0` (NaN must fail).
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(resolution.hz() > 0.0) || !resolution.hz().is_finite() {
            return Err(SpectrumError::BadResolution(resolution.hz()));
        }
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if let Some((index, &value)) = power_mw
            .iter()
            .enumerate()
            .find(|(_, &p)| !(p >= 0.0) || !p.is_finite())
        {
            return Err(SpectrumError::BadPower { index, value });
        }
        Ok(Spectrum {
            start,
            resolution,
            power_mw,
        })
    }

    /// The start frequency of an `n`-bin spectrum laid out by `fft_shift`,
    /// i.e. whose DC bin is pinned at integer index `n / 2` and maps to
    /// `center`.
    ///
    /// For even `n` this equals `center − n·resolution/2`. For odd `n` the
    /// DC bin still sits at integer index `n / 2`, so the axis starts
    /// `(n/2)·resolution` below center — using `center − span/2` there
    /// would place every bin label half a bin low.
    fn centered_start(center: Hertz, resolution: Hertz, n: usize) -> Hertz {
        Hertz(center.hz() - (n / 2) as f64 * resolution.hz())
    }

    /// The calibrated power spectrum of one complex-baseband capture taken
    /// at `sample_rate` around `center`, read through a Blackman–Harris
    /// window: the high-dynamic-range window FASE needs to see weak
    /// side-bands next to strong carriers. This is the workspace's one
    /// spectrum estimator, the stand-in for the paper's spectrum analyzer.
    ///
    /// Bin powers are normalized so a CW tone of complex-envelope
    /// magnitude `a` reads `|a|²` milliwatts at its bin. The spectrum
    /// covers `[center − fs/2, center + fs/2)` with resolution `fs / n`.
    ///
    /// # Examples
    ///
    /// ```
    /// use fase_dsp::{Complex64, Hertz, Spectrum};
    ///
    /// // A -90 dBm tone 1 kHz above the center frequency.
    /// let n = 4096;
    /// let fs = 65_536.0;
    /// let amp = 10f64.powf(-90.0 / 20.0);
    /// let iq: Vec<Complex64> = (0..n)
    ///     .map(|t| Complex64::from_polar(amp, std::f64::consts::TAU * 1024.0 * t as f64 / fs))
    ///     .collect();
    /// let spectrum = Spectrum::from_capture(Hertz::from_khz(100.0), fs, &iq)?;
    /// let peak = spectrum.peak_bin();
    /// assert_eq!(spectrum.frequency_at(peak.0), Hertz(101_024.0));
    /// assert!((spectrum.dbm_at(peak.0).dbm() - -90.0).abs() < 0.5);
    /// # Ok::<(), fase_dsp::SpectrumError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`SpectrumError::Empty`] for an empty capture, and the
    /// validation errors of [`Spectrum::new`] for a non-positive sample
    /// rate or non-finite samples.
    pub fn from_capture(
        center: Hertz,
        sample_rate: f64,
        iq: &[Complex64],
    ) -> Result<Spectrum, SpectrumError> {
        if iq.is_empty() {
            return Err(SpectrumError::Empty);
        }
        let n = iq.len();
        // Window tables (coefficients + coherent gain) come from the
        // process-wide cache, the window multiply is fused into the copy
        // into the reused FFT workspace, and bin powers use norm_sqr with
        // a squared scale — no per-bin hypot, no per-capture allocation
        // beyond the power vector the Spectrum owns.
        let tables = window::blackman_harris(n);
        let scale = 1.0 / (n as f64 * tables.coherent_gain());
        let scale_sq = scale * scale;
        let power = FFT_BUF.with(|cell| match cell.try_borrow_mut() {
            Ok(mut buf) => windowed_power(iq, tables.coefficients(), scale_sq, &mut buf),
            // Reentrancy (a transform called inside a transform on this
            // thread) cannot share the workspace; fall back to a local one.
            Err(_) => windowed_power(iq, tables.coefficients(), scale_sq, &mut Vec::new()),
        });
        let resolution = Hertz(sample_rate / n as f64);
        let start = Spectrum::centered_start(center, resolution, n);
        Spectrum::new(start, resolution, power)
    }

    /// Creates a spectrum from dBm bin values.
    ///
    /// # Errors
    ///
    /// Propagates the validation errors of [`Spectrum::new`]. `-inf` dBm is
    /// accepted and becomes zero power.
    pub fn from_dbm(
        start: Hertz,
        resolution: Hertz,
        dbm: &[f64],
    ) -> Result<Spectrum, SpectrumError> {
        let power: Vec<f64> = dbm
            .iter()
            .map(|&d| {
                if d == f64::NEG_INFINITY {
                    0.0
                } else {
                    Dbm(d).milliwatts()
                }
            })
            .collect();
        Spectrum::new(start, resolution, power)
    }

    /// Number of frequency bins.
    pub fn len(&self) -> usize {
        self.power_mw.len()
    }

    /// Always false: construction rejects empty spectra.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Frequency of bin 0.
    pub fn start(&self) -> Hertz {
        self.start
    }

    /// Bin spacing (the analyzer's resolution `f_res`).
    pub fn resolution(&self) -> Hertz {
        self.resolution
    }

    /// Frequency of the last bin.
    pub fn stop(&self) -> Hertz {
        self.frequency_at(self.len() - 1)
    }

    /// Center frequency of bin `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn frequency_at(&self, index: usize) -> Hertz {
        assert!(index < self.len(), "bin index {index} out of range");
        self.start + self.resolution * index as f64
    }

    /// Linear power (milliwatts) of bin `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn power_at(&self, index: usize) -> f64 {
        self.power_mw[index]
    }

    /// Power of bin `index` in dBm.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn dbm_at(&self, index: usize) -> Dbm {
        Dbm::from_watts(self.power_mw[index] * 1e-3)
    }

    /// The bin whose center is nearest to `f`, or `None` if `f` lies outside
    /// the spectrum (beyond half a bin past either edge).
    pub fn bin_of(&self, f: Hertz) -> Option<usize> {
        crate::units::bin_round((f - self.start) / self.resolution, self.len())
    }

    /// Linearly interpolated power (milliwatts) at an arbitrary frequency.
    ///
    /// Frequencies outside the covered band return `None`; the FASE
    /// heuristic relies on this to skip shifted lookups that fall off the
    /// measured span.
    pub fn sample(&self, f: Hertz) -> Option<f64> {
        let x = (f - self.start) / self.resolution;
        if x > (self.len() - 1) as f64 {
            return None;
        }
        let i = crate::units::bin_floor(x, self.len())?;
        if i + 1 >= self.len() {
            return Some(self.power_mw[self.len() - 1]);
        }
        let frac = x - i as f64;
        Some(self.power_mw[i] * (1.0 - frac) + self.power_mw[i + 1] * frac)
    }

    /// All bin powers in milliwatts.
    pub fn powers(&self) -> &[f64] {
        &self.power_mw
    }

    /// Iterator over `(frequency, linear power in mW)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Hertz, f64)> + '_ {
        self.power_mw
            .iter()
            .enumerate()
            .map(|(i, &p)| (self.start + self.resolution * i as f64, p))
    }

    /// Bin values converted to dBm.
    pub fn to_dbm_vec(&self) -> Vec<f64> {
        self.power_mw
            .iter()
            .map(|&p| Dbm::from_watts(p * 1e-3).dbm())
            .collect()
    }

    /// Index and power of the strongest bin.
    pub fn peak_bin(&self) -> (usize, f64) {
        self.power_mw
            .iter()
            .copied()
            .enumerate()
            .fold(
                (0, f64::MIN),
                |best, (i, p)| if p > best.1 { (i, p) } else { best },
            )
    }

    /// Total power across all bins, in milliwatts.
    pub fn total_power(&self) -> f64 {
        self.power_mw.iter().sum()
    }

    /// Median bin power in milliwatts — a robust noise-floor estimate.
    pub fn median_power(&self) -> f64 {
        crate::stats::median(&self.power_mw)
    }

    /// Extracts the sub-spectrum covering `[lo, hi]` (bins whose centers
    /// fall inside the closed interval).
    ///
    /// # Errors
    ///
    /// Returns [`SpectrumError::Empty`] if no bin centers fall inside.
    pub fn band(&self, lo: Hertz, hi: Hertz) -> Result<Spectrum, SpectrumError> {
        let first = crate::units::bin_ceil((lo - self.start) / self.resolution, self.len())
            .ok_or(SpectrumError::Empty)?;
        let last_f = ((hi - self.start) / self.resolution).floor();
        if last_f < first as f64 {
            return Err(SpectrumError::Empty);
        }
        let last = crate::units::bin_floor(last_f, self.len()).unwrap_or(self.len() - 1);
        if first > last {
            return Err(SpectrumError::Empty);
        }
        Spectrum::new(
            self.frequency_at(first),
            self.resolution,
            self.power_mw[first..=last].to_vec(),
        )
    }

    /// True if `other` shares this spectrum's frequency grid (same start,
    /// resolution, and bin count up to floating-point tolerance).
    pub fn same_grid(&self, other: &Spectrum) -> bool {
        self.len() == other.len()
            && (self.start - other.start).hz().abs() <= 1e-6 * self.resolution.hz()
            && (self.resolution - other.resolution).hz().abs() <= 1e-9 * self.resolution.hz()
    }

    /// Power-averages several spectra measured on the same grid (the
    /// analyzer's "average 4 captures").
    ///
    /// # Errors
    ///
    /// Returns [`SpectrumError::Empty`] for an empty input and
    /// [`SpectrumError::GridMismatch`] if grids differ.
    pub fn average<'a, I>(spectra: I) -> Result<Spectrum, SpectrumError>
    where
        I: IntoIterator<Item = &'a Spectrum>,
    {
        let mut iter = spectra.into_iter();
        let first = iter.next().ok_or(SpectrumError::Empty)?;
        let mut acc = first.power_mw.clone();
        let mut count = 1usize;
        for s in iter {
            if !first.same_grid(s) {
                return Err(SpectrumError::GridMismatch);
            }
            for (a, p) in acc.iter_mut().zip(&s.power_mw) {
                *a += p;
            }
            count += 1;
        }
        let inv = 1.0 / count as f64;
        for a in acc.iter_mut() {
            *a *= inv;
        }
        Spectrum::new(first.start, first.resolution, acc)
    }

    /// Robust power-average: a per-bin trimmed mean over spectra measured
    /// on the same grid. With `k` captures, the `max(1, k/4)` smallest and
    /// largest values of each bin are discarded (capped so at least one
    /// value survives) before averaging — so a single glitched capture
    /// (ADC clip, interference burst, gain error) cannot drag a bin the
    /// way the plain mean of [`Spectrum::average`] can. For `k = 3` this
    /// reduces to the per-bin median; fewer than three captures fall back
    /// to the plain mean (there is nothing to trim against).
    ///
    /// # Errors
    ///
    /// Returns [`SpectrumError::Empty`] for an empty input and
    /// [`SpectrumError::GridMismatch`] if grids differ.
    pub fn robust_average<'a, I>(spectra: I) -> Result<Spectrum, SpectrumError>
    where
        I: IntoIterator<Item = &'a Spectrum>,
    {
        let all: Vec<&Spectrum> = spectra.into_iter().collect();
        let first = *all.first().ok_or(SpectrumError::Empty)?;
        if !all.iter().all(|s| first.same_grid(s)) {
            return Err(SpectrumError::GridMismatch);
        }
        let k = all.len();
        if k < 3 {
            return Spectrum::average(all);
        }
        let trim = (k / 4).max(1).min((k - 1) / 2);
        let mut out = Vec::with_capacity(first.len());
        let mut column = vec![0.0f64; k];
        for bin in 0..first.len() {
            for (j, s) in all.iter().enumerate() {
                column[j] = s.power_mw[bin];
            }
            column.sort_by(f64::total_cmp);
            let kept = &column[trim..k - trim];
            out.push(kept.iter().sum::<f64>() / kept.len() as f64);
        }
        Spectrum::new(first.start, first.resolution, out)
    }

    /// Concatenates adjacent sweep segments into one spectrum. Segments
    /// must have the same resolution and be supplied in ascending order,
    /// each starting one bin after the previous segment ends.
    ///
    /// # Errors
    ///
    /// Returns [`SpectrumError::Empty`] for empty input and
    /// [`SpectrumError::GridMismatch`] for gaps, overlaps, or mixed
    /// resolutions.
    pub fn stitch<'a, I>(segments: I) -> Result<Spectrum, SpectrumError>
    where
        I: IntoIterator<Item = &'a Spectrum>,
    {
        let mut iter = segments.into_iter();
        let first = iter.next().ok_or(SpectrumError::Empty)?;
        let res = first.resolution;
        let mut power = first.power_mw.clone();
        let mut expected_next = first.stop() + res;
        for s in iter {
            let res_ok = (s.resolution - res).hz().abs() <= 1e-9 * res.hz();
            let start_ok = (s.start - expected_next).hz().abs() <= 1e-6 * res.hz();
            if !res_ok || !start_ok {
                return Err(SpectrumError::GridMismatch);
            }
            power.extend_from_slice(&s.power_mw);
            expected_next = s.stop() + res;
        }
        Spectrum::new(first.start, res, power)
    }

    /// Returns a copy with every bin scaled by a linear factor.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or non-finite.
    pub fn scaled(&self, factor: f64) -> Spectrum {
        assert!(
            factor >= 0.0 && factor.is_finite(),
            "scale factor must be finite and non-negative"
        );
        Spectrum {
            start: self.start,
            resolution: self.resolution,
            power_mw: self.power_mw.iter().map(|p| p * factor).collect(),
        }
    }
}

thread_local! {
    /// Reused FFT workspace: campaigns transform thousands of equal-length
    /// captures per worker thread, and the windowed copy of the capture
    /// does not need a fresh allocation each time.
    static FFT_BUF: RefCell<Vec<Complex64>> = const { RefCell::new(Vec::new()) };
}

/// Windowed FFT power of one capture: fused window-multiply copy into
/// `buf`, in-place transform through the process-wide plan cache, centered
/// bin order, and `|z|²·scale²` readout.
fn windowed_power(
    iq: &[Complex64],
    coeffs: &[f64],
    scale_sq: f64,
    buf: &mut Vec<Complex64>,
) -> Vec<f64> {
    buf.clear();
    buf.extend(iq.iter().zip(coeffs).map(|(z, &c)| z.scale(c)));
    // Campaigns transform thousands of equal-length captures; the
    // process-wide plan cache pays the twiddle setup once per length.
    cached_plan(iq.len()).forward(buf);
    fft_shift(buf);
    buf.iter().map(|z| z.norm_sqr() * scale_sq).collect()
}

impl fmt::Display for Spectrum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Spectrum[{} .. {} @ {}, {} bins]",
            self.start,
            self.stop(),
            self.resolution,
            self.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn centered_start_places_dc_at_integer_midpoint() {
        let center = Hertz(1.0e6);
        let res = Hertz(100.0);
        // Even n: identical to center − span/2.
        assert_eq!(
            Spectrum::centered_start(center, res, 1024),
            Hertz(1.0e6 - 51_200.0)
        );
        // Odd n: DC at integer index n/2, so start is (n/2)·res below
        // center — NOT (n·res)/2, which would be half a bin lower.
        let start = Spectrum::centered_start(center, res, 9);
        assert_eq!(start, Hertz(1.0e6 - 400.0));
        assert_eq!(Hertz(start.hz() + 4.0 * res.hz()), center);
    }

    fn ramp(n: usize) -> Spectrum {
        Spectrum::new(
            Hertz(1000.0),
            Hertz(10.0),
            (0..n).map(|i| (i + 1) as f64).collect(),
        )
        .unwrap()
    }

    #[test]
    fn construction_validates() {
        assert_eq!(
            Spectrum::new(Hertz(0.0), Hertz(1.0), vec![]).unwrap_err(),
            SpectrumError::Empty
        );
        assert!(matches!(
            Spectrum::new(Hertz(0.0), Hertz(0.0), vec![1.0]),
            Err(SpectrumError::BadResolution(_))
        ));
        assert!(matches!(
            Spectrum::new(Hertz(0.0), Hertz(1.0), vec![1.0, -2.0]),
            Err(SpectrumError::BadPower { index: 1, .. })
        ));
        assert!(matches!(
            Spectrum::new(Hertz(0.0), Hertz(1.0), vec![f64::NAN]),
            Err(SpectrumError::BadPower { index: 0, .. })
        ));
    }

    #[test]
    fn frequency_grid() {
        let s = ramp(5);
        assert_eq!(s.frequency_at(0), Hertz(1000.0));
        assert_eq!(s.frequency_at(4), Hertz(1040.0));
        assert_eq!(s.stop(), Hertz(1040.0));
        assert_eq!(s.bin_of(Hertz(1020.0)), Some(2));
        assert_eq!(s.bin_of(Hertz(1024.9)), Some(2));
        assert_eq!(s.bin_of(Hertz(999.0)), Some(0));
        assert_eq!(s.bin_of(Hertz(990.0)), None);
        assert_eq!(s.bin_of(Hertz(1100.0)), None);
    }

    #[test]
    fn interpolation() {
        let s = ramp(5);
        assert_eq!(s.sample(Hertz(1000.0)), Some(1.0));
        assert_eq!(s.sample(Hertz(1005.0)), Some(1.5));
        assert_eq!(s.sample(Hertz(1040.0)), Some(5.0));
        assert_eq!(s.sample(Hertz(999.9)), None);
        assert_eq!(s.sample(Hertz(1040.1)), None);
    }

    #[test]
    fn dbm_round_trip() {
        let s = Spectrum::from_dbm(Hertz(0.0), Hertz(1.0), &[-120.0, -100.0]).unwrap();
        let d = s.to_dbm_vec();
        assert!((d[0] + 120.0).abs() < 1e-9);
        assert!((d[1] + 100.0).abs() < 1e-9);
        let s2 = Spectrum::from_dbm(Hertz(0.0), Hertz(1.0), &[f64::NEG_INFINITY]).unwrap();
        assert_eq!(s2.power_at(0), 0.0);
    }

    #[test]
    fn averaging_reduces_to_mean() {
        let a = Spectrum::new(Hertz(0.0), Hertz(1.0), vec![1.0, 3.0]).unwrap();
        let b = Spectrum::new(Hertz(0.0), Hertz(1.0), vec![3.0, 5.0]).unwrap();
        let avg = Spectrum::average([&a, &b]).unwrap();
        assert_eq!(avg.powers(), &[2.0, 4.0]);
    }

    #[test]
    fn averaging_rejects_mismatch() {
        let a = Spectrum::new(Hertz(0.0), Hertz(1.0), vec![1.0, 3.0]).unwrap();
        let b = Spectrum::new(Hertz(5.0), Hertz(1.0), vec![3.0, 5.0]).unwrap();
        assert_eq!(
            Spectrum::average([&a, &b]).unwrap_err(),
            SpectrumError::GridMismatch
        );
    }

    #[test]
    fn robust_average_rejects_outlier_captures() {
        let clean = || Spectrum::new(Hertz(0.0), Hertz(1.0), vec![1.0, 2.0]).unwrap();
        let glitched = Spectrum::new(Hertz(0.0), Hertz(1.0), vec![1e6, 2.0]).unwrap();
        // Four captures, one with a clipped bin: the trimmed mean discards
        // the extreme and the clean value is recovered exactly.
        let avg = Spectrum::robust_average([&clean(), &clean(), &clean(), &glitched]).unwrap();
        assert_eq!(avg.powers(), &[1.0, 2.0]);
        // Three captures reduce to the per-bin median.
        let avg3 = Spectrum::robust_average([&clean(), &glitched, &clean()]).unwrap();
        assert_eq!(avg3.powers(), &[1.0, 2.0]);
    }

    #[test]
    fn robust_average_small_cohorts_fall_back_to_mean() {
        let a = Spectrum::new(Hertz(0.0), Hertz(1.0), vec![1.0, 3.0]).unwrap();
        let b = Spectrum::new(Hertz(0.0), Hertz(1.0), vec![3.0, 5.0]).unwrap();
        let avg = Spectrum::robust_average([&a, &b]).unwrap();
        assert_eq!(avg.powers(), &[2.0, 4.0]);
        let one = Spectrum::robust_average([&a]).unwrap();
        assert_eq!(one.powers(), &[1.0, 3.0]);
        assert_eq!(
            Spectrum::robust_average(std::iter::empty()).unwrap_err(),
            SpectrumError::Empty
        );
    }

    #[test]
    fn robust_average_rejects_grid_mismatch() {
        let a = Spectrum::new(Hertz(0.0), Hertz(1.0), vec![1.0, 3.0]).unwrap();
        let b = Spectrum::new(Hertz(5.0), Hertz(1.0), vec![3.0, 5.0]).unwrap();
        assert_eq!(
            Spectrum::robust_average([&a, &b, &a]).unwrap_err(),
            SpectrumError::GridMismatch
        );
    }

    #[test]
    fn stitching_segments() {
        let a = Spectrum::new(Hertz(0.0), Hertz(1.0), vec![1.0, 2.0]).unwrap();
        let b = Spectrum::new(Hertz(2.0), Hertz(1.0), vec![3.0, 4.0]).unwrap();
        let s = Spectrum::stitch([&a, &b]).unwrap();
        assert_eq!(s.len(), 4);
        assert_eq!(s.frequency_at(3), Hertz(3.0));
        assert_eq!(s.powers(), &[1.0, 2.0, 3.0, 4.0]);

        let gap = Spectrum::new(Hertz(5.0), Hertz(1.0), vec![9.0]).unwrap();
        assert_eq!(
            Spectrum::stitch([&a, &gap]).unwrap_err(),
            SpectrumError::GridMismatch
        );
    }

    #[test]
    fn band_extraction() {
        let s = ramp(10); // 1000..1090
        let b = s.band(Hertz(1015.0), Hertz(1055.0)).unwrap();
        assert_eq!(b.start(), Hertz(1020.0));
        assert_eq!(b.len(), 4); // 1020,1030,1040,1050
        assert_eq!(b.powers(), &[3.0, 4.0, 5.0, 6.0]);
        assert!(s.band(Hertz(2000.0), Hertz(3000.0)).is_err());
    }

    #[test]
    fn peak_and_totals() {
        let s = Spectrum::new(Hertz(0.0), Hertz(1.0), vec![1.0, 7.0, 2.0]).unwrap();
        assert_eq!(s.peak_bin(), (1, 7.0));
        assert_eq!(s.total_power(), 10.0);
        assert_eq!(s.median_power(), 2.0);
    }

    #[test]
    fn scale_multiplies_every_bin() {
        let a = Spectrum::new(Hertz(0.0), Hertz(1.0), vec![1.5, 2.5]).unwrap();
        let s = a.scaled(2.0);
        assert_eq!(s.powers(), &[3.0, 5.0]);
    }

    #[test]
    fn iter_yields_frequency_power_pairs() {
        let s = ramp(3);
        let pairs: Vec<(Hertz, f64)> = s.iter().collect();
        assert_eq!(pairs.len(), 3);
        assert_eq!(pairs[0], (Hertz(1000.0), 1.0));
        assert_eq!(pairs[2], (Hertz(1020.0), 3.0));
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_scale_panics() {
        let _ = ramp(3).scaled(-1.0);
    }

    #[test]
    fn display_is_informative() {
        let s = ramp(3);
        let text = format!("{s}");
        assert!(text.contains("3 bins"), "{text}");
    }

    fn tone(n: usize, fs: f64, f_offset: f64, dbm: f64) -> Vec<Complex64> {
        let amp = 10f64.powf(dbm / 20.0);
        (0..n)
            .map(|t| Complex64::from_polar(amp, std::f64::consts::TAU * f_offset * t as f64 / fs))
            .collect()
    }

    #[test]
    fn capture_tone_level_is_calibrated() {
        let n = 8192;
        let fs = 819_200.0;
        // Exactly bin-centered tone.
        let iq = tone(n, fs, 10.0 * fs / n as f64, -75.0);
        let spectrum = Spectrum::from_capture(Hertz(0.0), fs, &iq).unwrap();
        let (b, _) = spectrum.peak_bin();
        let dbm = spectrum.dbm_at(b).dbm();
        assert!((dbm - -75.0).abs() < 0.1, "{dbm} dBm");
    }

    #[test]
    fn capture_frequency_mapping_covers_rf_span() {
        let n = 1024;
        let fs = 102_400.0;
        let center = Hertz::from_mhz(1.0);
        let spectrum = Spectrum::from_capture(center, fs, &vec![Complex64::ZERO; n]).unwrap();
        assert_eq!(spectrum.len(), n);
        assert_eq!(spectrum.start(), Hertz(1.0e6 - 51_200.0));
        assert_eq!(spectrum.resolution(), Hertz(100.0));
        // Negative baseband tone lands below center.
        let iq = tone(n, fs, -20.0 * 100.0, -80.0);
        let spectrum = Spectrum::from_capture(center, fs, &iq).unwrap();
        let (b, _) = spectrum.peak_bin();
        assert_eq!(spectrum.frequency_at(b), Hertz(1.0e6 - 2_000.0));
    }

    #[test]
    fn capture_noise_floor_reads_density_times_enbw() {
        use crate::noise::complex_normal;
        use crate::rng::SmallRng;
        let n = 1 << 15;
        let fs = 1.0e6;
        let mut rng = SmallRng::seed_from_u64(1);
        // Complex noise with total power over the span = -60 dBm
        // → density = -60 − 10·log10(fs) dBm/Hz = -120 dBm/Hz.
        let sigma = 10f64.powf(-60.0 / 20.0);
        let iq: Vec<Complex64> = (0..n).map(|_| complex_normal(&mut rng, sigma)).collect();
        let spectrum = Spectrum::from_capture(Hertz(0.0), fs, &iq).unwrap();
        let mean_bin = spectrum.total_power() / n as f64;
        let density = 10f64.powf(-120.0 / 10.0);
        let expected =
            density * spectrum.resolution().hz() * window::blackman_harris(n).enbw_bins();
        let err_db = 10.0 * (mean_bin / expected).log10();
        assert!(err_db.abs() < 0.3, "floor error {err_db} dB");
    }

    #[test]
    fn averaging_four_captures_reduces_variance() {
        use crate::noise::complex_normal;
        use crate::rng::SmallRng;
        let n = 4096;
        let fs = 409_600.0;
        let mut rng = SmallRng::seed_from_u64(2);
        let captures: Vec<Spectrum> = (0..4)
            .map(|_| {
                let iq: Vec<Complex64> = (0..n).map(|_| complex_normal(&mut rng, 1e-6)).collect();
                Spectrum::from_capture(Hertz(0.0), fs, &iq).unwrap()
            })
            .collect();
        let avg = Spectrum::average(captures.iter()).unwrap();
        let var_single = crate::stats::variance(captures[0].powers());
        let var_avg = crate::stats::variance(avg.powers());
        assert!(
            var_avg < 0.5 * var_single,
            "averaging did not reduce variance: {var_single} -> {var_avg}"
        );
    }

    #[test]
    fn empty_capture_is_rejected() {
        assert_eq!(
            Spectrum::from_capture(Hertz(0.0), 1e6, &[]),
            Err(SpectrumError::Empty)
        );
    }
}
