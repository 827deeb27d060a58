//! Multi-channel evidence fusion and detection-quality statistics.
//!
//! FASE's Eq. 1 evidence is additive in log space: every harmonic of a
//! carrier is an independent look at the same alternation activity, and
//! so is every *channel* — a different antenna position, receiver, or
//! noise realization observing the same machine (the
//! Multi-Screaming-Channel observation: fusing the leak across carriers
//! and positions beats any single channel). This module stacks the two
//! axes:
//!
//! 1. **Across the harmonic set** —
//!    [`HarmonicSet::total_log_score`](crate::grouping::HarmonicSet::total_log_score)
//!    sums member-carrier evidence within one channel's report.
//! 2. **Across channels** — [`fuse_reports`] matches carriers between K
//!    per-channel [`FaseReport`]s by frequency, sums their evidence per
//!    harmonic family and returns the scene's fused statistic.
//!
//! True emitters score consistently in every channel, so their fused
//! evidence grows ~K-fold; a noise spike or interferer artifact that
//! fooled one channel stays a one-channel contribution. The
//! [`roc_auc`]/[`average_precision`] helpers quantify exactly that
//! separation for the detection-quality benchmark.

use crate::carrier::Carrier;
use crate::fase::GROUP_REL_TOL;
use crate::grouping::group_harmonic_sets;
use crate::report::FaseReport;
use fase_dsp::Hertz;
use std::collections::BTreeMap;

/// Fuses per-channel reports into the scene's fused statistic: the
/// strongest harmonic family's evidence, summed over its members and over
/// every channel (0.0 when no channel detected anything).
///
/// Carriers from different channels within `match_tol` of each other
/// (chained, like seam dedup in
/// [`merge_band_reports`](crate::merge::merge_band_reports)) are one
/// physical emitter: their evidence *sums*, because distinct channels
/// are independent observations rather than redundant ones. Each such
/// cluster's strongest member stands for it when the clusters are
/// regrouped into harmonic families with [`GROUP_REL_TOL`], and each
/// family's evidence is summed per channel over its clusters. The result
/// depends only on the reports and their order (which fixes the order of
/// float sums).
pub fn fuse_reports(reports: &[&FaseReport], match_tol: Hertz) -> f64 {
    let channels = reports.len();
    // (frequency, channel, carrier) rows, ascending frequency; channel
    // index breaks exact-frequency ties deterministically.
    let mut rows: Vec<(usize, &Carrier)> = Vec::new();
    for (k, report) in reports.iter().enumerate() {
        for c in report.carriers() {
            rows.push((k, c));
        }
    }
    rows.sort_by(|(ka, a), (kb, b)| {
        a.frequency()
            .hz()
            .total_cmp(&b.frequency().hz())
            .then(ka.cmp(kb))
    });

    // Chain-cluster rows within `match_tol` of the previous row.
    let mut clusters: Vec<Vec<(usize, &Carrier)>> = Vec::new();
    for (k, c) in rows {
        match clusters.last_mut() {
            Some(cluster)
                if cluster.last().is_some_and(|(_, prev)| {
                    (c.frequency() - prev.frequency()).hz().abs() <= match_tol.hz()
                }) =>
            {
                cluster.push((k, c));
            }
            _ => clusters.push(vec![(k, c)]),
        }
    }

    // Each cluster's evidence per channel, and its strongest member
    // carrier, used to regroup the clusters into harmonic families;
    // keyed by its exact frequency bits so family members map back to
    // their cluster.
    let mut evidence: Vec<Vec<f64>> = Vec::with_capacity(clusters.len());
    let mut representatives: Vec<Carrier> = Vec::with_capacity(clusters.len());
    let mut cluster_of: BTreeMap<u64, usize> = BTreeMap::new();
    for cluster in &clusters {
        let mut per_channel = vec![0.0f64; channels];
        for (k, c) in cluster {
            if let Some(slot) = per_channel.get_mut(*k) {
                *slot += c.total_log_score();
            }
        }
        let representative = cluster
            .iter()
            .map(|(_, c)| *c)
            .max_by(|a, b| a.total_log_score().total_cmp(&b.total_log_score()));
        if let Some(rep) = representative {
            cluster_of.insert(rep.frequency().hz().to_bits(), evidence.len());
            representatives.push(rep.clone());
        }
        evidence.push(per_channel);
    }

    // Harmonic families over the representatives, then family-level
    // sums over the member clusters.
    let mut fused = 0.0f64;
    for set in group_harmonic_sets(&representatives, GROUP_REL_TOL) {
        let mut per_channel = vec![0.0f64; channels];
        for member in set.members() {
            let Some(cluster) = cluster_of
                .get(&member.frequency().hz().to_bits())
                .and_then(|&ci| evidence.get(ci))
            else {
                continue;
            };
            for (total, e) in per_channel.iter_mut().zip(cluster) {
                *total += e;
            }
        }
        fused = fused.max(per_channel.iter().sum());
    }
    fused
}

/// The single-channel detection statistic of one report: its strongest
/// harmonic family's set-level evidence (0.0 when nothing was
/// detected). The single-channel baseline the benchmark compares fusion
/// against.
pub fn single_channel_statistic(report: &FaseReport) -> f64 {
    report
        .harmonic_sets()
        .iter()
        .map(crate::grouping::HarmonicSet::total_log_score)
        .fold(0.0, f64::max)
}

/// One point of a ROC / precision-recall curve, computed at a score
/// threshold (classify "leak" when `score >= threshold`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RocPoint {
    /// The threshold this point was computed at.
    pub threshold: f64,
    /// True-positive rate (recall): detected leaks / actual leaks.
    pub tpr: f64,
    /// False-positive rate: false alarms / actual non-leaks.
    pub fpr: f64,
    /// Precision: detected leaks / everything flagged.
    pub precision: f64,
}

/// ROC / PR curve over `(score, is_leak)` labeled scenarios: one point
/// per distinct score, thresholds descending (so TPR/FPR ascend).
/// Returns an empty curve when either class is absent.
pub fn roc_points(labeled: &[(f64, bool)]) -> Vec<RocPoint> {
    let positives = labeled.iter().filter(|(_, leak)| *leak).count();
    let negatives = labeled.len() - positives;
    if positives == 0 || negatives == 0 {
        return Vec::new();
    }
    let mut thresholds: Vec<f64> = labeled.iter().map(|(s, _)| *s).collect();
    thresholds.sort_by(f64::total_cmp);
    thresholds.dedup();
    thresholds.reverse();
    thresholds
        .iter()
        .map(|&t| {
            let tp = labeled.iter().filter(|(s, leak)| *leak && *s >= t).count();
            let fp = labeled.iter().filter(|(s, leak)| !*leak && *s >= t).count();
            RocPoint {
                threshold: t,
                tpr: tp as f64 / positives as f64,
                fpr: fp as f64 / negatives as f64,
                precision: if tp + fp > 0 {
                    tp as f64 / (tp + fp) as f64
                } else {
                    0.0
                },
            }
        })
        .collect()
}

/// ROC area under the curve via the Mann–Whitney U statistic: the
/// probability that a random leak scenario outscores a random non-leak
/// one (ties count ½). Exact, deterministic, and independent of input
/// order. Returns 0.5 (no information) when either class is absent.
pub fn roc_auc(labeled: &[(f64, bool)]) -> f64 {
    let positives: Vec<f64> = labeled
        .iter()
        .filter(|(_, leak)| *leak)
        .map(|(s, _)| *s)
        .collect();
    let negatives: Vec<f64> = labeled
        .iter()
        .filter(|(_, leak)| !*leak)
        .map(|(s, _)| *s)
        .collect();
    if positives.is_empty() || negatives.is_empty() {
        return 0.5;
    }
    let mut u = 0.0f64;
    for &p in &positives {
        for &n in &negatives {
            if p > n {
                u += 1.0;
            } else if p == n {
                u += 0.5;
            }
        }
    }
    u / (positives.len() * negatives.len()) as f64
}

/// Average precision (the area under the precision-recall curve,
/// step-interpolated): mean of the precision at each leak's rank, with
/// ties broken pessimistically (non-leaks ranked first at equal score).
/// Returns 0.0 when there are no leaks.
pub fn average_precision(labeled: &[(f64, bool)]) -> f64 {
    let positives = labeled.iter().filter(|(_, leak)| *leak).count();
    if positives == 0 {
        return 0.0;
    }
    let mut ranked: Vec<(f64, bool)> = labeled.to_vec();
    // Descending score; at equal score the non-leak sorts first so a
    // tie never flatters the detector.
    ranked.sort_by(|(sa, la), (sb, lb)| sb.total_cmp(sa).then(la.cmp(lb)));
    let mut tp = 0usize;
    let mut sum = 0.0f64;
    for (rank, (_, leak)) in ranked.iter().enumerate() {
        if *leak {
            tp += 1;
            sum += tp as f64 / (rank + 1) as f64;
        }
    }
    sum / positives as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::carrier::Harmonic;
    use fase_dsp::Dbm;

    fn carrier(f: f64, score: f64) -> Carrier {
        Carrier::new(
            Hertz(f),
            Dbm(-104.0),
            Dbm(-118.0),
            vec![Harmonic { h: 1, score }],
        )
    }

    fn report(carriers: Vec<Carrier>) -> FaseReport {
        FaseReport::from_carriers(carriers, 0.003)
    }

    #[test]
    fn evidence_sums_across_channels() {
        // Three channels see the 315 kHz carrier at slightly different
        // interpolated frequencies; channel 1 also misses it entirely.
        let reports = [
            report(vec![carrier(315_000.0, 100.0)]),
            report(vec![]),
            report(vec![carrier(315_120.0, 80.0)]),
        ];
        let fused = fuse_reports(&reports.each_ref(), Hertz(500.0));
        let expected = 101.0f64.ln() + 81.0f64.ln();
        assert!((fused - expected).abs() < 1e-9, "{fused}");
    }

    #[test]
    fn distinct_carriers_stay_distinct() {
        // 315 kHz (both channels) and 430 kHz (channel 0 only) are too
        // far apart to match and share no harmonic family: the fused
        // statistic is the 315 kHz carrier's alone, not the sum of all
        // three detections.
        let reports = [
            report(vec![carrier(315_000.0, 100.0), carrier(430_000.0, 60.0)]),
            report(vec![carrier(315_050.0, 90.0)]),
        ];
        let fused = fuse_reports(&reports.each_ref(), Hertz(500.0));
        let regulator = 101.0f64.ln() + 91.0f64.ln();
        assert!((fused - regulator).abs() < 1e-9, "{fused}");
        // A match tolerance that bridges the gap would merge them.
        let bridged = fuse_reports(&reports.each_ref(), Hertz(200_000.0));
        assert!(bridged > fused, "{bridged}");
    }

    #[test]
    fn harmonic_families_fuse_across_members_and_channels() {
        // Fundamental and 2nd harmonic, each seen by both channels: the
        // set statistic sums all four looks.
        let reports = [
            report(vec![carrier(315_000.0, 50.0), carrier(630_000.0, 20.0)]),
            report(vec![carrier(315_080.0, 40.0), carrier(630_160.0, 30.0)]),
        ];
        let fused = fuse_reports(&reports.each_ref(), Hertz(500.0));
        let ch0 = 51.0f64.ln() + 21.0f64.ln();
        let ch1 = 41.0f64.ln() + 31.0f64.ln();
        assert!((fused - (ch0 + ch1)).abs() < 1e-9, "{fused}");
    }

    #[test]
    fn channel_order_does_not_change_the_statistic() {
        let a = report(vec![carrier(315_000.0, 100.0), carrier(630_000.0, 10.0)]);
        let b = report(vec![carrier(315_100.0, 40.0)]);
        let c = report(vec![carrier(630_050.0, 70.0)]);
        let abc = fuse_reports(&[&a, &b, &c], Hertz(500.0));
        let cba = fuse_reports(&[&c, &b, &a], Hertz(500.0));
        assert!(abc > 0.0, "{abc}");
        assert!((abc - cba).abs() < 1e-12, "{abc} vs {cba}");
    }

    #[test]
    fn fused_statistic_dominates_every_single_channel() {
        // Evidence is non-negative, so the fused statistic can never be
        // worse than any channel alone — across random channel mixes.
        use fase_dsp::rng::{Rng, SmallRng};
        for trial in 0..32u64 {
            let mut rng = SmallRng::seed_from_u64(trial).fork(0xF0);
            let reports: Vec<FaseReport> = (0..3)
                .map(|_| {
                    let mut cs = Vec::new();
                    for base in [200_000.0, 315_000.0, 521_000.0] {
                        if rng.gen_f64() < 0.7 {
                            let f = base + (rng.gen_f64() - 0.5) * 100.0;
                            cs.push(carrier(f, rng.gen_f64() * 200.0));
                        }
                    }
                    report(cs)
                })
                .collect();
            let borrowed: Vec<&FaseReport> = reports.iter().collect();
            let fused = fuse_reports(&borrowed, Hertz(500.0));
            for single in &reports {
                assert!(
                    fused >= single_channel_statistic(single) - 1e-9,
                    "fusion lost to a single channel on trial {trial}"
                );
            }
        }
    }

    #[test]
    fn empty_input_gives_a_zero_statistic() {
        assert_eq!(fuse_reports(&[], Hertz(500.0)), 0.0);
        let empty = report(vec![]);
        assert_eq!(fuse_reports(&[&empty, &empty], Hertz(500.0)), 0.0);
    }

    #[test]
    fn single_channel_statistic_reads_the_strongest_set() {
        let r = report(vec![
            carrier(315_000.0, 100.0),
            carrier(630_000.0, 50.0),
            carrier(430_000.0, 10.0),
        ]);
        let expected = 101.0f64.ln() + 51.0f64.ln();
        assert!((single_channel_statistic(&r) - expected).abs() < 1e-9);
        assert_eq!(single_channel_statistic(&report(vec![])), 0.0);
    }

    #[test]
    fn roc_auc_known_values() {
        // Perfect separation.
        let perfect = [(10.0, true), (9.0, true), (2.0, false), (1.0, false)];
        assert_eq!(roc_auc(&perfect), 1.0);
        // Perfectly wrong.
        let inverted = [(1.0, true), (10.0, false)];
        assert_eq!(roc_auc(&inverted), 0.0);
        // All tied: no information.
        let tied = [(5.0, true), (5.0, false)];
        assert_eq!(roc_auc(&tied), 0.5);
        // One mistake among 2×2 pairs: 3 wins + 1 loss = 0.75.
        let mixed = [(10.0, true), (3.0, true), (5.0, false), (1.0, false)];
        assert_eq!(roc_auc(&mixed), 0.75);
        // Degenerate inputs.
        assert_eq!(roc_auc(&[]), 0.5);
        assert_eq!(roc_auc(&[(1.0, true)]), 0.5);
    }

    #[test]
    fn roc_points_trace_the_curve() {
        let labeled = [(10.0, true), (3.0, true), (5.0, false), (1.0, false)];
        let points = roc_points(&labeled);
        assert_eq!(points.len(), 4);
        let first = points.first().unwrap();
        assert_eq!((first.tpr, first.fpr, first.precision), (0.5, 0.0, 1.0));
        let last = points.last().unwrap();
        assert_eq!((last.tpr, last.fpr), (1.0, 1.0));
        // Monotone non-decreasing along descending thresholds.
        for w in points.windows(2) {
            assert!(w[1].tpr >= w[0].tpr && w[1].fpr >= w[0].fpr);
        }
        assert!(roc_points(&[(1.0, true)]).is_empty());
    }

    #[test]
    fn average_precision_known_values() {
        // Positives ranked 1st and 3rd: AP = (1/1 + 2/3) / 2 = 5/6.
        let labeled = [(10.0, true), (5.0, false), (3.0, true), (1.0, false)];
        assert!((average_precision(&labeled) - 5.0 / 6.0).abs() < 1e-12);
        // A tie ranks the negative first (pessimistic): positive at
        // rank 2 of 2 → AP = 1/2.
        let tied = [(5.0, true), (5.0, false)];
        assert_eq!(average_precision(&tied), 0.5);
        assert_eq!(average_precision(&[(1.0, false)]), 0.0);
    }
}
