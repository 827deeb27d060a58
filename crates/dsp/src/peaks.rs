//! Peak detection for spectra and heuristic outputs.
//!
//! The FASE paper defers peak-picking to standard algorithms ("\[29\] and \[4\]
//! cover such algorithms"); we implement a Palshikar-style spike detector:
//! each sample is scored by how far it rises above its neighborhood, scores
//! are thresholded robustly (median + k·MAD so that the threshold survives
//! very strong peaks), and non-maximum suppression keeps one peak per
//! neighborhood.

use crate::stats;

/// A detected peak.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Peak {
    /// Index of the peak sample in the input slice.
    pub index: usize,
    /// Value of the input at the peak.
    pub value: f64,
    /// Palshikar spike score (mean rise over left and right neighborhoods).
    pub score: f64,
}

/// Configuration for [`find_peaks`].
///
/// # Examples
///
/// ```
/// use fase_dsp::peaks::{find_peaks, PeakConfig};
/// let mut x = vec![1.0; 101];
/// x[50] = 10.0;
/// let peaks = find_peaks(&x, &PeakConfig::default());
/// assert_eq!(peaks.len(), 1);
/// assert_eq!(peaks[0].index, 50);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeakConfig {
    /// Neighborhood half-width (samples on each side used for the score).
    pub half_window: usize,
    /// Robust threshold: a peak's score must exceed
    /// `median(score) + threshold_mads · MAD(score)`.
    pub threshold_mads: f64,
    /// Minimum absolute rise above the neighborhood mean; guards against
    /// declaring peaks in perfectly flat data where MAD is zero.
    pub min_rise: f64,
    /// Minimum spacing between reported peaks, in samples.
    pub min_distance: usize,
}

impl Default for PeakConfig {
    fn default() -> PeakConfig {
        PeakConfig {
            half_window: 5,
            threshold_mads: 8.0,
            min_rise: 1e-12,
            min_distance: 3,
        }
    }
}

/// Finds spikes in `values` per the configured Palshikar-style criterion.
///
/// Returns peaks sorted by descending value. Inputs shorter than
/// `2·half_window + 1` return no peaks.
pub fn find_peaks(values: &[f64], config: &PeakConfig) -> Vec<Peak> {
    let w = config.half_window.max(1);
    if values.len() < 2 * w + 1 {
        return Vec::new();
    }
    select_peaks(values, &palshikar_scores(values, w), config)
}

/// Neighborhood mean over the finite samples only, so one poisoned bin
/// (NaN/Inf from a glitched capture) cannot mask every peak near it.
fn finite_mean(xs: &[f64]) -> Option<f64> {
    let mut sum = 0.0;
    let mut count = 0usize;
    for &x in xs {
        if x.is_finite() {
            sum += x;
            count += 1;
        }
    }
    (count > 0).then(|| sum / count as f64)
}

/// Palshikar S1 score of every sample: the mean of `x[i] - mean(left w)`
/// and `x[i] - mean(right w)`, with 0.0 for a non-finite sample (it can
/// never be a peak). Needs `values.len() >= 2·w + 1`.
///
/// The left window of sample `i + w + 1` is the right window of sample
/// `i`, so each full window's mean is computed once, into `full[i]` (the
/// window `values[i + 1..=i + w]`). Only the `w + 1` leading left windows
/// and the `w` trailing, truncated right windows are summed on their own.
fn palshikar_scores(values: &[f64], w: usize) -> Vec<f64> {
    let n = values.len();
    let full_count = n - w;
    // Tap by tap: every window still adds its samples left to right, so
    // each sum equals `finite_mean`'s bit for bit. A skipped sample adds
    // +0.0, which is exact: a sum started at +0.0 never becomes -0.0.
    let mut sums = vec![0.0f64; full_count];
    let mut counts = vec![0.0f64; full_count];
    for k in 1..=w {
        let tap = &values[k..k + full_count];
        for ((sum, count), &x) in sums.iter_mut().zip(counts.iter_mut()).zip(tap) {
            let finite = x.is_finite();
            *sum += if finite { x } else { 0.0 };
            *count += if finite { 1.0 } else { 0.0 };
        }
    }
    let full: Vec<Option<f64>> = sums
        .iter()
        .zip(&counts)
        .map(|(&sum, &count)| (count > 0.0).then(|| sum / count))
        .collect();

    let mut scores = vec![0.0f64; n];
    for (i, (score, &x)) in scores.iter_mut().zip(values).enumerate() {
        if !x.is_finite() {
            continue;
        }
        let left = if i > w {
            full[i - w - 1]
        } else {
            finite_mean(&values[..i])
        };
        let right = if i < full_count {
            full[i]
        } else {
            finite_mean(&values[i + 1..])
        };
        let rise_left = left.map_or(0.0, |m| x - m);
        let rise_right = right.map_or(0.0, |m| x - m);
        *score = 0.5 * (rise_left + rise_right);
    }
    scores
}

/// Thresholds `scores` robustly and keeps one local maximum per
/// neighborhood (see [`find_peaks`]).
fn select_peaks(values: &[f64], scores: &[f64], config: &PeakConfig) -> Vec<Peak> {
    let n = values.len();
    // The robust threshold must be computed over the scores of *finite*
    // samples only: non-finite samples carry a 0.0 score placeholder,
    // and on a heavily-poisoned capture those placeholders would
    // drag the median toward zero and deflate the MAD, moving the
    // threshold and changing which peaks clear it.
    let finite_scores: Vec<f64> = values
        .iter()
        .zip(scores)
        .filter(|(x, _)| x.is_finite())
        .map(|(_, &s)| s)
        .collect();
    if finite_scores.is_empty() {
        return Vec::new();
    }
    let (med, spread) = stats::median_mad(&finite_scores);
    let threshold = (med + config.threshold_mads * spread).max(config.min_rise);

    // Candidate peaks: strict local maxima whose score clears the
    // threshold. Non-finite neighbors compare as -inf so a legitimate peak
    // beside a poisoned bin is still reported; non-finite samples
    // themselves have zero scores and cannot qualify.
    let v = |i: usize| {
        if values[i].is_finite() {
            values[i]
        } else {
            f64::NEG_INFINITY
        }
    };
    let mut candidates: Vec<Peak> = (1..n - 1)
        .filter(|&i| {
            values[i].is_finite() && v(i) >= v(i - 1) && v(i) > v(i + 1) && scores[i] >= threshold
        })
        .map(|i| Peak {
            index: i,
            value: values[i],
            score: scores[i],
        })
        .collect();

    // Non-maximum suppression: strongest first, knock out close neighbors.
    candidates.sort_by(|a, b| b.value.total_cmp(&a.value));
    let mut kept: Vec<Peak> = Vec::new();
    for c in candidates {
        if kept
            .iter()
            .all(|k| k.index.abs_diff(c.index) >= config.min_distance.max(1))
        {
            kept.push(c);
        }
    }
    kept
}

/// Refines a peak's position by fitting a parabola through the peak bin and
/// its two neighbors, returning the sub-bin offset in `(-0.5, 0.5)`.
///
/// The spectrum analyzer's grid quantizes carrier frequencies to `f_res`;
/// interpolation recovers a finer estimate for carrier-frequency reporting.
///
/// Returns 0.0 for edge bins or degenerate (non-concave) neighborhoods.
pub fn parabolic_offset(values: &[f64], index: usize) -> f64 {
    if index == 0 || index + 1 >= values.len() {
        return 0.0;
    }
    let (a, b, c) = (values[index - 1], values[index], values[index + 1]);
    let denom = a - 2.0 * b + c;
    if denom >= 0.0 {
        return 0.0; // not concave — no meaningful vertex
    }
    let offset = 0.5 * (a - c) / denom;
    offset.clamp(-0.5, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{mix_seed, Rng, SmallRng};

    /// The direct O(n·w) Palshikar loop: both windows of every sample
    /// summed from scratch. [`palshikar_scores`] must match it bit for bit.
    fn reference_scores(values: &[f64], w: usize) -> Vec<f64> {
        let n = values.len();
        let mut scores = vec![0.0f64; n];
        for i in 0..n {
            if !values[i].is_finite() {
                continue;
            }
            let lo = i.saturating_sub(w);
            let hi = (i + w).min(n - 1);
            let rise_left = finite_mean(&values[lo..i]).map_or(0.0, |m| values[i] - m);
            let rise_right = finite_mean(&values[i + 1..=hi]).map_or(0.0, |m| values[i] - m);
            scores[i] = 0.5 * (rise_left + rise_right);
        }
        scores
    }

    #[test]
    fn windowed_scores_match_the_direct_loop() {
        let mut found = 0;
        for &w in &[1usize, 5, 30] {
            for case in 0..48u64 {
                let mut rng = SmallRng::seed_from_u64(mix_seed(w as u64, case));
                let n = 2 * w + 1 + (rng.next_u64() % 160) as usize;
                // Even cases draw from a few small integers and ±0.0, so
                // window sums cancel to exactly zero; odd cases are
                // log-domain noise with a few strong spikes.
                let mut x: Vec<f64> = (0..n)
                    .map(|_| {
                        if case % 2 == 0 {
                            [-1.0, -0.0, 0.0, 1.0, 2.0][(rng.next_u64() % 5) as usize]
                        } else if rng.gen_f64() < 0.03 {
                            rng.gen_range(5.0, 20.0)
                        } else {
                            rng.gen_range(-0.5, 0.5)
                        }
                    })
                    .collect();
                for v in x.iter_mut() {
                    let r = rng.gen_f64();
                    if r < 0.04 {
                        *v = f64::NAN;
                    } else if r < 0.06 {
                        *v = f64::INFINITY;
                    } else if r < 0.08 {
                        *v = f64::NEG_INFINITY;
                    }
                }
                let fast: Vec<u64> = palshikar_scores(&x, w)
                    .iter()
                    .map(|s| s.to_bits())
                    .collect();
                let slow: Vec<u64> = reference_scores(&x, w)
                    .iter()
                    .map(|s| s.to_bits())
                    .collect();
                assert_eq!(fast, slow, "w={w} case={case} n={n}");
                let config = PeakConfig {
                    half_window: w,
                    threshold_mads: 4.0,
                    ..PeakConfig::default()
                };
                let peaks = find_peaks(&x, &config);
                assert_eq!(
                    peaks,
                    select_peaks(&x, &reference_scores(&x, w), &config),
                    "w={w} case={case} n={n}"
                );
                found += peaks.len();
            }
        }
        assert!(found > 0, "no case produced a peak");
    }

    fn flat_with_spikes(n: usize, spikes: &[(usize, f64)]) -> Vec<f64> {
        let mut x = vec![1.0; n];
        // Mild deterministic ripple so MAD is non-zero.
        for (i, v) in x.iter_mut().enumerate() {
            *v += 0.01 * ((i * 7919) % 13) as f64 / 13.0;
        }
        for &(i, v) in spikes {
            x[i] = v;
        }
        x
    }

    #[test]
    fn finds_single_spike() {
        let x = flat_with_spikes(200, &[(77, 25.0)]);
        let peaks = find_peaks(&x, &PeakConfig::default());
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].index, 77);
        assert!(peaks[0].value > 24.0);
    }

    #[test]
    fn finds_multiple_spikes_sorted_by_value() {
        let x = flat_with_spikes(300, &[(50, 10.0), (150, 30.0), (250, 20.0)]);
        let peaks = find_peaks(&x, &PeakConfig::default());
        assert_eq!(peaks.len(), 3);
        assert_eq!(peaks[0].index, 150);
        assert_eq!(peaks[1].index, 250);
        assert_eq!(peaks[2].index, 50);
    }

    #[test]
    fn flat_data_has_no_peaks() {
        let x = vec![3.0; 100];
        assert!(find_peaks(&x, &PeakConfig::default()).is_empty());
    }

    #[test]
    fn noise_alone_is_rejected() {
        // Deterministic small ripple only.
        let x: Vec<f64> = (0..500)
            .map(|i| 1.0 + 0.05 * (((i * 2654435761usize) % 1000) as f64 / 1000.0))
            .collect();
        let peaks = find_peaks(&x, &PeakConfig::default());
        assert!(peaks.is_empty(), "found {} spurious peaks", peaks.len());
    }

    #[test]
    fn min_distance_suppresses_shoulders() {
        let mut x = flat_with_spikes(100, &[(40, 20.0)]);
        x[41] = 15.0; // shoulder next to the main peak
        let peaks = find_peaks(
            &x,
            &PeakConfig {
                min_distance: 5,
                ..PeakConfig::default()
            },
        );
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].index, 40);
    }

    #[test]
    fn short_input_is_safe() {
        assert!(find_peaks(&[1.0, 2.0], &PeakConfig::default()).is_empty());
        assert!(find_peaks(&[], &PeakConfig::default()).is_empty());
    }

    #[test]
    fn parabolic_interpolation_recovers_offset() {
        // Samples of a parabola with vertex at 10.3.
        let vertex = 10.3;
        let x: Vec<f64> = (0..21).map(|i| 5.0 - (i as f64 - vertex).powi(2)).collect();
        let off = parabolic_offset(&x, 10);
        assert!((off - 0.3).abs() < 1e-9, "offset {off}");
        assert_eq!(parabolic_offset(&x, 0), 0.0);
        assert_eq!(parabolic_offset(&x, 20), 0.0);
    }

    #[test]
    fn poisoned_bins_do_not_mask_peaks() {
        let mut x = flat_with_spikes(200, &[(77, 25.0)]);
        x[40] = f64::NAN;
        x[120] = f64::INFINITY;
        x[78] = f64::NAN; // right next to the real peak
        let peaks = find_peaks(&x, &PeakConfig::default());
        assert_eq!(peaks.len(), 1, "peaks: {peaks:?}");
        assert_eq!(peaks[0].index, 77);
        assert!(peaks[0].value.is_finite() && peaks[0].score.is_finite());
    }

    #[test]
    fn poisoned_majority_does_not_deflate_threshold() {
        // Two of every three samples are poisoned. Their 0.0 score
        // placeholders are then the majority of all scores, so a threshold
        // computed over *all* scores collapses to `min_rise` (median and
        // MAD both zero) and every ripple maximum becomes a spurious peak.
        // Computed over the finite samples' scores only, the threshold
        // stays calibrated to the ripple and only the real spike clears it.
        let mut x = flat_with_spikes(301, &[(150, 25.0)]);
        for (i, v) in x.iter_mut().enumerate() {
            if i % 3 != 0 {
                *v = f64::NAN;
            }
        }
        let peaks = find_peaks(&x, &PeakConfig::default());
        assert_eq!(peaks.len(), 1, "peaks: {peaks:?}");
        assert_eq!(peaks[0].index, 150);
    }

    #[test]
    fn all_nan_input_has_no_peaks() {
        let x = vec![f64::NAN; 100];
        assert!(find_peaks(&x, &PeakConfig::default()).is_empty());
    }

    #[test]
    fn parabolic_degenerate_is_zero() {
        assert_eq!(parabolic_offset(&[1.0, 1.0, 1.0], 1), 0.0);
        assert_eq!(parabolic_offset(&[1.0, 0.5, 1.0], 1), 0.0); // valley
    }
}
