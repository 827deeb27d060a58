//! Merging per-band FASE reports into one span-wide report.
//!
//! A wide-band sweep (paper §3: the Agilent MXA stepping across 0–4 GHz)
//! analyzes each resolution-limited band independently and then needs one
//! report for the whole span. Bands overlap at their seams so no carrier
//! is lost to an edge, which means a carrier sitting on a seam is detected
//! *twice* — once per adjacent band, at slightly different interpolated
//! frequencies. [`merge_band_reports`] deduplicates those seam detections,
//! regroups the surviving carriers into harmonic sets across band
//! boundaries (a 315 kHz fundamental in band 0 and its 630 kHz harmonic
//! in band 1 must land in one set), and combines the per-band capture
//! health records.

use crate::carrier::Carrier;
use crate::fase::GROUP_REL_TOL;
use crate::health::CampaignHealth;
use crate::report::FaseReport;
use fase_dsp::Hertz;

/// Merges per-band reports (in ascending band order) into one span-wide
/// report.
///
/// Carriers whose frequencies lie within `seam_tol` of each other are
/// treated as duplicate detections of one physical emitter: the instance
/// with the strongest combined evidence (`total_log_score`) survives, so
/// the band that saw the carrier away from its filter edge wins over the
/// band that clipped it. Survivors are re-grouped into harmonic sets with
/// [`GROUP_REL_TOL`], the tolerance [`Fase::analyze`](crate::Fase::analyze)
/// groups each band with, and the per-band health records are summed —
/// `planned`, `surviving`, retry/quarantine counts add up; fault and drop
/// lists concatenate in band order.
///
/// Merging is deterministic: ties in evidence break toward the lower
/// frequency, and the output order is the analyzer's strongest-first
/// convention.
pub fn merge_band_reports(reports: &[FaseReport], seam_tol: Hertz) -> FaseReport {
    let mut carriers: Vec<Carrier> = reports
        .iter()
        .flat_map(|r| r.carriers().iter().cloned())
        .collect();
    // Ascending frequency; equal frequencies keep the stronger first so
    // the clustering pass below can always prefer its current best.
    carriers.sort_by(|a, b| {
        a.frequency()
            .hz()
            .total_cmp(&b.frequency().hz())
            .then(b.total_log_score().total_cmp(&a.total_log_score()))
    });

    // Cluster the frequency-sorted carriers: a carrier within `seam_tol`
    // of the previous *kept* carrier is a seam duplicate. Keeping the
    // stronger of the two (not unconditionally the first) means a carrier
    // detected cleanly mid-band replaces its edge-clipped twin.
    let mut deduped: Vec<Carrier> = Vec::with_capacity(carriers.len());
    for c in carriers {
        match deduped.last_mut() {
            Some(prev) if (c.frequency() - prev.frequency()).hz().abs() <= seam_tol.hz() => {
                if c.total_log_score() > prev.total_log_score() {
                    *prev = c;
                }
            }
            _ => deduped.push(c),
        }
    }

    // Span-wide output order: strongest combined evidence first, the same
    // convention `Fase::analyze` produces within one band.
    deduped.sort_by(|a, b| {
        b.total_log_score()
            .total_cmp(&a.total_log_score())
            .then(a.frequency().hz().total_cmp(&b.frequency().hz()))
    });

    let mut merged = FaseReport::from_carriers(deduped, GROUP_REL_TOL);
    if let Some(health) = merge_health(reports) {
        merged = merged.with_health(health);
    }
    merged
}

/// Sums the bands' health records; `None` when no band recorded one.
fn merge_health(reports: &[FaseReport]) -> Option<CampaignHealth> {
    let mut merged: Option<CampaignHealth> = None;
    for h in reports.iter().filter_map(FaseReport::health) {
        let m = merged.get_or_insert_with(CampaignHealth::default);
        m.planned += h.planned;
        m.surviving += h.surviving;
        m.retried_tasks += h.retried_tasks;
        m.total_retries += h.total_retries;
        m.quarantined += h.quarantined;
        m.faults.extend(h.faults.iter().cloned());
        m.dropped.extend(h.dropped.iter().cloned());
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::carrier::Harmonic;
    use fase_dsp::Dbm;

    fn carrier(f: f64, score: f64) -> Carrier {
        Carrier::new(
            Hertz(f),
            Dbm(-100.0),
            Dbm(-114.0),
            vec![Harmonic { h: 1, score }],
        )
    }

    fn report(carriers: Vec<Carrier>) -> FaseReport {
        FaseReport::from_carriers(carriers, 0.003)
    }

    #[test]
    fn seam_duplicate_appears_once_stronger_wins() {
        // Band 0 clips the carrier at its upper edge (weak evidence);
        // band 1 sees it cleanly. The merged report keeps band 1's copy.
        let a = report(vec![carrier(400_050.0, 20.0)]);
        let b = report(vec![carrier(400_120.0, 300.0)]);
        let merged = merge_band_reports(&[a, b], Hertz(500.0));
        assert_eq!(merged.len(), 1);
        let kept = merged.carriers().first().unwrap();
        assert_eq!(kept.frequency(), Hertz(400_120.0));
        assert!((kept.total_log_score() - 301.0f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn sub_unity_seam_duplicates_keep_the_stronger_copy() {
        // Regression for the `score.max(1.0).ln()` evidence floor: both
        // copies of this weak seam carrier used to collapse to evidence
        // 0.0, so the "stronger wins" rule degenerated to "first in input
        // order wins". With `ln(1 + score)` the 0.9-score copy genuinely
        // outscores the 0.2-score copy and must survive regardless of
        // which band reported it first.
        let weak_lo = carrier(400_000.0, 0.2);
        let weak_hi = carrier(400_300.0, 0.9);
        for reports in [
            [report(vec![weak_lo.clone()]), report(vec![weak_hi.clone()])],
            [report(vec![weak_hi.clone()]), report(vec![weak_lo.clone()])],
        ] {
            let merged = merge_band_reports(&reports, Hertz(500.0));
            assert_eq!(merged.len(), 1);
            let kept = merged.carriers().first().unwrap();
            assert_eq!(kept.frequency(), Hertz(400_300.0), "stronger copy");
        }
    }

    #[test]
    fn distinct_carriers_survive_and_sort_by_evidence() {
        let a = report(vec![carrier(100_000.0, 50.0)]);
        let b = report(vec![carrier(900_000.0, 800.0)]);
        let merged = merge_band_reports(&[a, b], Hertz(500.0));
        assert_eq!(merged.len(), 2);
        let freqs: Vec<f64> = merged
            .carriers()
            .iter()
            .map(|c| c.frequency().hz())
            .collect();
        assert_eq!(freqs, vec![900_000.0, 100_000.0], "strongest first");
    }

    #[test]
    fn harmonics_group_across_bands() {
        // Fundamental in one band, 2nd harmonic in the next: one set.
        let a = report(vec![carrier(315_000.0, 100.0)]);
        let b = report(vec![carrier(630_000.0, 90.0)]);
        let merged = merge_band_reports(&[a, b], Hertz(500.0));
        assert_eq!(merged.len(), 2);
        assert_eq!(merged.harmonic_sets().len(), 1, "{merged}");
        let set = merged.harmonic_sets().first().unwrap();
        assert_eq!(set.harmonic_numbers(), vec![1, 2]);
    }

    #[test]
    fn chained_seam_cluster_collapses_to_one() {
        // Three detections pairwise within tolerance of their neighbor:
        // one emitter, one survivor (the strongest).
        let reports = [
            report(vec![carrier(500_000.0, 10.0)]),
            report(vec![carrier(500_300.0, 400.0)]),
            report(vec![carrier(500_600.0, 30.0)]),
        ];
        let merged = merge_band_reports(&reports, Hertz(400.0));
        assert_eq!(merged.len(), 1);
        assert_eq!(
            merged.carriers().first().unwrap().frequency(),
            Hertz(500_300.0)
        );
    }

    #[test]
    fn health_records_sum_in_band_order() {
        let mut h0 = CampaignHealth::new(5);
        h0.total_retries = 2;
        h0.retried_tasks = 1;
        h0.faults.push(crate::health::FaultRecord {
            f_alt: Hertz(30_000.0),
            segment: 0,
            average: 0,
            attempt: 0,
            tag: "adc-clip".into(),
        });
        let mut h1 = CampaignHealth::new(5);
        h1.surviving = 4;
        h1.quarantined = 3;
        let a = report(vec![carrier(100_000.0, 10.0)]).with_health(h0);
        let b = report(vec![carrier(900_000.0, 10.0)]).with_health(h1);
        let merged = merge_band_reports(&[a, b], Hertz(500.0));
        let health = merged.health().expect("merged health");
        assert_eq!(health.planned, 10);
        assert_eq!(health.surviving, 9);
        assert_eq!(health.total_retries, 2);
        assert_eq!(health.quarantined, 3);
        assert!(health.has_fault("adc-clip"));
        assert!(merged.is_degraded());
    }

    #[test]
    fn no_health_anywhere_stays_none() {
        let merged = merge_band_reports(
            &[report(vec![carrier(100_000.0, 10.0)]), report(vec![])],
            Hertz(500.0),
        );
        assert!(merged.health().is_none());
        assert!(!merged.is_degraded());
    }

    #[test]
    fn empty_input_is_empty_report() {
        let merged = merge_band_reports(&[], Hertz(500.0));
        assert!(merged.is_empty());
        assert!(merged.health().is_none());
    }

    #[test]
    fn zero_band_merge_is_byte_stable() {
        // The degenerate server case — a sweep cancelled before any band
        // finished — must serialize identically on every merge.
        let a = merge_band_reports(&[], Hertz(500.0));
        let b = merge_band_reports(&[], Hertz(500.0));
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.to_json().contains("\"carriers\": []"), "{}", a.to_json());
    }

    #[test]
    fn all_bands_degraded_sums_health_byte_identically() {
        // Every band lost captures: the sums are exact integers, the
        // merged report keeps the [DEGRADED] marking, and a re-merge of
        // the same inputs is byte-identical.
        let band = |f: f64, surviving: usize| {
            let mut h = CampaignHealth::new(8);
            h.surviving = surviving;
            report(vec![carrier(f, 50.0)]).with_health(h)
        };
        let bands = [band(100_000.0, 5), band(500_000.0, 6), band(900_000.0, 7)];
        let merged = merge_band_reports(&bands, Hertz(500.0));
        let health = merged.health().expect("merged health");
        assert_eq!((health.planned, health.surviving), (24, 18));
        assert!(merged.is_degraded());
        let again = merge_band_reports(&bands, Hertz(500.0));
        assert_eq!(merged.to_json(), again.to_json());
    }

    #[test]
    fn duplicates_exactly_on_the_seam_boundary_collapse() {
        // The dedup comparison is inclusive (`<=`): two detections split
        // by *exactly* the seam tolerance are one emitter. The survivor
        // then regroups with the other band's fundamental, and the whole
        // report is byte-identical to one that only ever saw the
        // surviving copies.
        let a = report(vec![carrier(200_000.0, 120.0), carrier(400_000.0, 80.0)]);
        let b = report(vec![carrier(400_500.0, 90.0)]);
        let merged = merge_band_reports(&[a, b], Hertz(500.0));
        assert_eq!(merged.len(), 2, "{merged}");
        assert_eq!(merged.harmonic_sets().len(), 1, "{merged}");
        assert_eq!(
            merged
                .harmonic_sets()
                .first()
                .expect("one set")
                .harmonic_numbers(),
            vec![1, 2]
        );
        let expected = report(vec![carrier(200_000.0, 120.0), carrier(400_500.0, 90.0)]);
        assert_eq!(merged.to_json(), expected.to_json());
    }
}
