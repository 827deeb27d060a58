//! Order statistics for latency samples and for run-to-run spread.
//!
//! Percentiles come from `fase_dsp::stats::percentile` (linear
//! interpolation), but only when the estimate is backed by data: a
//! percentile with fewer than [`MIN_BEYOND`] samples above its rank is
//! refused, because with that few it is just one of the largest samples
//! (five samples make a "p95" that is the maximum).

/// Samples that must lie strictly above a percentile's rank.
pub const MIN_BEYOND: usize = 10;

/// Number of samples strictly above the interpolation rank of percentile
/// `p` among `n` sorted samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = p / 100.0 * (n - 1) as f64;
    (n - 1) - rank.floor() as usize
}

/// Percentile `p` of `samples`, or an error naming why it is refused.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    let beyond = samples_beyond(samples.len(), p);
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} of {} samples has only {beyond} beyond it (need {MIN_BEYOND})",
            samples.len()
        ));
    }
    Ok(fase_dsp::stats::percentile(samples, p))
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so run-to-run spreads computed
/// here match the ones the benchmark's acceptance check computes.
/// `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median (0 for a zero median).
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = fase_dsp::stats::median(values);
    Some(if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_sample_p95_is_refused() {
        // The old harness took p95 of 3-5 iterations, which is the max.
        let five = [10.0, 11.0, 12.0, 13.0, 50.0];
        let err = percentile(&five, 95.0).expect_err("5-sample p95 must be refused");
        assert!(err.contains("only 1 beyond"), "{err}");
    }

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let series: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert!((percentile(&series, 90.0).expect("100 samples") - 90.1).abs() < 1e-9);
        assert!(percentile(&series[..90], 90.0).is_err());
        assert_eq!(percentile(&series[..20], 50.0), Ok(10.5));
        assert!(percentile(&series[..19], 50.0).is_err());
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([4, 1, 3], n=4) == [1.0, 3.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0]), Some((1.0, 4.0)));
        assert_eq!(quartiles(&[1.0]), None);
        let spread = relative_spread(&ten).expect("ten values");
        assert!((spread - 5.5 / 5.5).abs() < 1e-12, "{spread}");
    }
}
