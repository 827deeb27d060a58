//! Small descriptive-statistics helpers used across the workspace.

/// Arithmetic mean. Returns 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance. Returns 0.0 for slices shorter than two elements.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Median of the finite elements, found by selection (no full sort).
/// Returns 0.0 if no finite elements remain.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Linear-interpolated percentile `p` in `[0, 100]`, computed over the
/// finite elements only (NaN/±Inf bins — e.g. from a glitched capture —
/// are ignored rather than poisoning the estimate).
/// Returns 0.0 if no finite elements remain.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]` or NaN.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100]");
    let mut finite: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    select_percentile(&mut finite, p)
}

/// Median and median absolute deviation of the finite elements, as
/// `(median, MAD)` — a robust centre and spread, used by the peak detector
/// to set thresholds that survive strong outlier peaks. The median is
/// selected once and the deviations reuse its buffer. Both are 0.0 if no
/// finite elements remain.
pub fn median_mad(xs: &[f64]) -> (f64, f64) {
    let mut buf: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    let med = select_percentile(&mut buf, 50.0);
    for x in &mut buf {
        *x = (*x - med).abs();
    }
    // A deviation can overflow to +Inf; like any non-finite value it does
    // not count towards the spread.
    buf.retain(|d| d.is_finite());
    (med, select_percentile(&mut buf, 50.0))
}

/// Percentile `p` of `buf`, which holds only finite values, by
/// selection: `buf` is reordered, not sorted. Under `total_cmp` the
/// `lo`-th order statistic and the minimum above it are the same bits a
/// full sort puts at `lo` and `lo + 1`, so the interpolation below is
/// bit-identical to a sort-based percentile.
fn select_percentile(buf: &mut [f64], p: f64) -> f64 {
    if buf.is_empty() {
        return 0.0;
    }
    let rank = p / 100.0 * (buf.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let (_, &mut a, upper) = buf.select_nth_unstable_by(lo, f64::total_cmp);
    if lo == hi {
        return a;
    }
    // `hi == lo + 1 <= len - 1`, so `upper` is never empty.
    let b = upper.iter().copied().min_by(f64::total_cmp).unwrap_or(a);
    let frac = rank - lo as f64;
    a * (1.0 - frac) + b * frac
}

/// Index of the maximum *finite* element; `None` for an empty slice or
/// one with no finite elements. NaN/±Inf entries never win (a NaN bin in
/// a poisoned spectrum must not become "the peak").
pub fn argmax(xs: &[f64]) -> Option<usize> {
    xs.iter()
        .enumerate()
        .filter(|(_, x)| x.is_finite())
        .fold(None, |best: Option<(usize, f64)>, (i, &x)| match best {
            Some((_, bx)) if bx >= x => best,
            _ => Some((i, x)),
        })
        .map(|(i, _)| i)
}

// ---------------------------------------------------------------------------
// Guarded NaN-able operations.
//
// The DSP hot paths (fase-lint rule `U-nan`) route square roots and
// logarithms through these helpers so an argument that drifts infinitesimally
// out of domain — a power that rounds to -1e-17, a uniform variate that
// lands exactly on 0 — clamps instead of poisoning a pipeline with NaN.

/// Square root clamped against negative arguments: `sqrt(max(x, 0))`.
///
/// # Examples
///
/// ```
/// use fase_dsp::stats::safe_sqrt;
/// assert_eq!(safe_sqrt(4.0), 2.0);
/// assert_eq!(safe_sqrt(-1e-17), 0.0);
/// ```
pub fn safe_sqrt(x: f64) -> f64 {
    x.max(0.0).sqrt()
}

/// Natural logarithm clamped away from the non-positive domain:
/// `ln(max(x, f64::MIN_POSITIVE))`.
///
/// # Examples
///
/// ```
/// use fase_dsp::stats::safe_ln;
/// assert_eq!(safe_ln(1.0), 0.0);
/// assert!(safe_ln(0.0).is_finite());
/// ```
pub fn safe_ln(x: f64) -> f64 {
    x.max(f64::MIN_POSITIVE).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn safe_ops_clamp_out_of_domain_arguments() {
        assert_eq!(safe_sqrt(9.0), 3.0);
        assert_eq!(safe_sqrt(-4.0), 0.0);
        assert_eq!(safe_sqrt(f64::NAN), 0.0);
        assert_eq!(safe_ln(std::f64::consts::E), 1.0);
        assert!(safe_ln(-1.0).is_finite());
    }

    #[test]
    fn mean_var_std() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), 2.5);
        assert!((variance(&xs) - 1.25).abs() < 1e-12);
        assert!((std_dev(&xs) - 1.25f64.sqrt()).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[5.0]), 0.0);
    }

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.0), 1.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 100.0), 4.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 25.0), 1.75);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn mad_is_robust() {
        let xs = [1.0, 1.0, 1.0, 1.0, 1000.0];
        assert_eq!(median_mad(&xs), (1.0, 0.0));
        let ys = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(median_mad(&ys), (3.0, 1.0));
        assert_eq!(median_mad(&[]), (0.0, 0.0));
    }

    #[test]
    fn argmax_works() {
        assert_eq!(argmax(&[1.0, 5.0, 3.0]), Some(1));
        assert_eq!(argmax(&[2.0, 2.0]), Some(0));
        assert_eq!(argmax(&[]), None);
    }

    #[test]
    fn argmax_skips_non_finite() {
        assert_eq!(argmax(&[1.0, f64::NAN, 3.0]), Some(2));
        assert_eq!(argmax(&[1.0, f64::INFINITY, 3.0]), Some(2));
        assert_eq!(argmax(&[f64::NAN, f64::NEG_INFINITY]), None);
    }

    #[test]
    fn percentile_ignores_non_finite() {
        let xs = [1.0, f64::NAN, 2.0, f64::INFINITY, 3.0, f64::NEG_INFINITY];
        assert_eq!(median(&xs), 2.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 3.0);
        assert_eq!(median(&[f64::NAN; 4]), 0.0);
    }

    #[test]
    fn mad_survives_poisoned_bins() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, f64::NAN];
        assert_eq!(median_mad(&xs), (3.0, 1.0));
        assert_eq!(median_mad(&[f64::NAN, f64::INFINITY]), (0.0, 0.0));
    }
}
