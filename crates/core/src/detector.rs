//! Carrier detection: peak-picking the heuristic score traces and merging
//! evidence across harmonics into [`Carrier`] reports.

use crate::carrier::{Carrier, Harmonic};
use crate::heuristic::ScoreTrace;
use crate::spectra::CampaignSpectra;
use fase_dsp::peaks::{find_peaks, PeakConfig};
use fase_dsp::{Dbm, Hertz};

/// Robust peak threshold: MADs above the median of the log-score trace.
const THRESHOLD_MADS: f64 = 7.0;

/// Peak-detection neighborhood half-width in bins.
const PEAK_HALF_WINDOW: usize = 30;

/// Detections within this many bins are merged into one carrier.
const MERGE_TOLERANCE_BINS: usize = 6;

/// Minimum heuristic score for a peak to count as evidence.
const MIN_SCORE: f64 = 8.0;

/// Alternative acceptance path for clusters with evidence from only one
/// harmonic — §2.3: "detection of a single harmonic of f_alt in a single
/// side-band is sufficient". The lone harmonic must be this strong, and
/// supported by at least [`DetectorConfig::single_harmonic_min_support`]
/// spectra.
const SINGLE_HARMONIC_MIN_SCORE: f64 = 50.0;

/// Detection thresholds and merge rules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Minimum number of distinct harmonics that must agree before a
    /// carrier is reported. The paper notes one is sufficient in principle;
    /// two is a robust default against lone noise spikes.
    pub min_harmonics: usize,
    /// Minimum number of spectra whose sub-score must individually support
    /// a peak (clamped to the campaign's spectrum count). Rejects
    /// single-spectrum coincidences, which can produce large Eq. (1)
    /// products on their own.
    pub min_support: usize,
    /// Require evidence from a first harmonic (h = ±1). AM side-bands are
    /// strongest at ±1; clusters made only of higher harmonics are almost
    /// always coincidences between unrelated comb structures.
    pub require_first_harmonic: bool,
    /// Reject candidates whose measured side-band level exceeds the
    /// carrier level by more than this many dB. AM side-bands are at most
    /// comparable to their carrier; a "carrier" far weaker than its
    /// "side-band" is the skirt of some other signal. Set very large to
    /// hunt buried carriers.
    pub max_sideband_excess_db: f64,
    /// Alternative acceptance path for clusters with evidence from only
    /// one harmonic (§2.3): the lone harmonic must score at least 50 and
    /// be supported by at least this many spectra.
    pub single_harmonic_min_support: usize,
}

impl Default for DetectorConfig {
    fn default() -> DetectorConfig {
        DetectorConfig {
            min_harmonics: 2,
            min_support: 3,
            require_first_harmonic: true,
            max_sideband_excess_db: 3.0,
            single_harmonic_min_support: 4,
        }
    }
}

/// One peak in one harmonic's score trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Bin index in the campaign grid.
    pub bin: usize,
    /// Candidate carrier frequency.
    pub frequency: Hertz,
    /// Harmonic that produced the evidence.
    pub harmonic: i32,
    /// Heuristic score at the peak.
    pub score: f64,
    /// Number of spectra supporting the peak.
    pub support: u8,
}

/// Finds score peaks in a single harmonic trace.
pub fn detect_in_trace(trace: &ScoreTrace, config: &DetectorConfig) -> Vec<Detection> {
    // Work in log domain: the baseline is ≈ ln(1) = 0 with roughly
    // symmetric noise, and genuine carriers are orders of magnitude up.
    let logs: Vec<f64> = trace.scores().iter().map(|&s| s.max(1e-12).ln()).collect();
    let peak_cfg = PeakConfig {
        half_window: PEAK_HALF_WINDOW,
        threshold_mads: THRESHOLD_MADS,
        min_rise: (MIN_SCORE.ln() * 0.5).max(0.1),
        min_distance: MERGE_TOLERANCE_BINS,
    };
    let need_support = config.min_support.min(trace.n_spectra()) as u8;
    find_peaks(&logs, &peak_cfg)
        .into_iter()
        .filter(|p| trace.scores()[p.index] >= MIN_SCORE)
        .filter(|p| trace.support()[p.index] >= need_support)
        .map(|p| {
            // The heuristic's windowed-max creates flat-topped plateaus;
            // re-center on the plateau so the frequency estimate is
            // unbiased.
            let bin = plateau_center(&logs, p.index);
            Detection {
                bin,
                frequency: trace.frequency_at(bin),
                harmonic: trace.harmonic(),
                score: trace.scores()[bin],
                support: trace.support()[bin].max(trace.support()[p.index]),
            }
        })
        .collect()
}

/// Merges per-harmonic detections into carriers and attaches magnitude and
/// side-band readouts from the campaign spectra.
pub fn merge_detections(
    spectra: &CampaignSpectra,
    mut detections: Vec<Detection>,
    config: &DetectorConfig,
) -> Vec<Carrier> {
    if detections.is_empty() {
        return Vec::new();
    }
    detections.sort_by_key(|d| d.bin);
    let tol = MERGE_TOLERANCE_BINS;

    // Cluster by bin adjacency.
    let mut clusters: Vec<Vec<Detection>> = Vec::new();
    for d in detections {
        match clusters.last_mut() {
            Some(cluster) if cluster.last().is_some_and(|prev| d.bin - prev.bin <= tol) => {
                cluster.push(d);
            }
            _ => clusters.push(vec![d]),
        }
    }

    let mean = spectra.mean_spectrum();
    let mut carriers: Vec<Carrier> = clusters
        .into_iter()
        .filter_map(|cluster| {
            let mut harmonics: Vec<Harmonic> = Vec::new();
            for d in &cluster {
                match harmonics.iter_mut().find(|h| h.h == d.harmonic) {
                    Some(h) => h.score = h.score.max(d.score),
                    None => harmonics.push(Harmonic {
                        h: d.harmonic,
                        score: d.score,
                    }),
                }
            }
            if harmonics.len() < config.min_harmonics {
                // Single-harmonic path: exceptionally strong, well-
                // supported evidence stands on its own (§2.3).
                let strong_single = cluster.iter().any(|d| {
                    d.score >= SINGLE_HARMONIC_MIN_SCORE
                        && d.support as usize >= config.single_harmonic_min_support
                });
                if !strong_single {
                    return None;
                }
            }
            if config.require_first_harmonic && !harmonics.iter().any(|h| h.h.abs() == 1) {
                return None;
            }
            // Log-score-weighted mean frequency.
            let weight_sum: f64 = cluster.iter().map(|d| d.score.max(1.0).ln()).sum();
            let freq = Hertz(
                cluster
                    .iter()
                    .map(|d| d.frequency.hz() * d.score.max(1.0).ln())
                    .sum::<f64>()
                    / weight_sum,
            );
            let magnitude = local_peak_dbm(&mean, freq, tol);
            let sideband = sideband_dbm(spectra, freq, &harmonics, tol);
            if sideband.dbm() > magnitude.dbm() + config.max_sideband_excess_db {
                return None;
            }
            Some(Carrier::new(freq, magnitude, sideband, harmonics))
        })
        .collect();
    carriers.sort_by(|a, b| b.total_log_score().total_cmp(&a.total_log_score()));
    carriers
}

/// Center of the near-flat plateau containing `index` (values within 2% of
/// the peak's log score).
fn plateau_center(logs: &[f64], index: usize) -> usize {
    let peak = logs[index];
    let tol = (peak.abs() * 0.02).max(1e-9);
    let mut lo = index;
    while lo > 0 && (peak - logs[lo - 1]).abs() <= tol {
        lo -= 1;
    }
    let mut hi = index;
    while hi + 1 < logs.len() && (peak - logs[hi + 1]).abs() <= tol {
        hi += 1;
    }
    (lo + hi) / 2
}

/// Strongest mean-spectrum bin within ±`tol` bins of `f`.
fn local_peak_dbm(mean: &fase_dsp::Spectrum, f: Hertz, tol: usize) -> Dbm {
    match mean.bin_of(f) {
        Some(b) => {
            let lo = b.saturating_sub(tol);
            let hi = (b + tol).min(mean.len() - 1);
            let p = mean.powers()[lo..=hi].iter().cloned().fold(0.0, f64::max);
            Dbm::from_watts(p * 1e-3)
        }
        None => Dbm(f64::NEG_INFINITY),
    }
}

/// Mean side-band level across spectra, measured at `f ± h·f_alt_i` for the
/// lowest detected |h|.
fn sideband_dbm(spectra: &CampaignSpectra, f: Hertz, harmonics: &[Harmonic], tol: usize) -> Dbm {
    // Clusters always carry harmonic evidence, but an empty slice simply
    // means "no side-band measured" — the same sentinel the bin lookup uses.
    let Some(h) = harmonics
        .iter()
        .map(|x| x.h)
        .min_by_key(|x| x.unsigned_abs())
    else {
        return Dbm(f64::NEG_INFINITY);
    };
    let mut acc = 0.0;
    let mut count = 0usize;
    for labeled in spectra.spectra() {
        let target = Hertz(f.hz() + h as f64 * labeled.f_alt.hz());
        if let Some(b) = labeled.spectrum.bin_of(target) {
            let lo = b.saturating_sub(tol);
            let hi = (b + tol).min(labeled.spectrum.len() - 1);
            acc += labeled.spectrum.powers()[lo..=hi]
                .iter()
                .cloned()
                .fold(0.0, f64::max);
            count += 1;
        }
    }
    if count == 0 {
        Dbm(f64::NEG_INFINITY)
    } else {
        Dbm::from_watts(acc / count as f64 * 1e-3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CampaignConfig;
    use crate::heuristic::{all_harmonic_scores, campaign_from_spectra, HeuristicConfig};
    use fase_dsp::Spectrum;

    /// Synthetic campaign with square-wave AM side-bands at ±1 and ±3.
    fn campaign(fc: f64) -> CampaignSpectra {
        let config = CampaignConfig::builder()
            .band(Hertz(0.0), Hertz(200_000.0))
            .resolution(Hertz(100.0))
            .alternation(Hertz(20_000.0), Hertz(500.0), 5)
            .build()
            .unwrap();
        let bins = config.bins();
        let res = 100.0;
        let spectra: Vec<Spectrum> = config
            .alternation_frequencies()
            .iter()
            .map(|f_alt| {
                let mut p = vec![1e-14; bins];
                p[(fc / res) as usize] = 1e-10;
                for (h, level) in [(1i32, 2e-12), (-1, 2e-12), (3, 3e-13), (-3, 3e-13)] {
                    let b = ((fc + h as f64 * f_alt.hz()) / res).round() as i64;
                    if (0..bins as i64).contains(&b) {
                        p[b as usize] = level;
                    }
                }
                Spectrum::new(Hertz(0.0), Hertz(100.0), p).unwrap()
            })
            .collect();
        campaign_from_spectra(config, spectra).unwrap()
    }

    #[test]
    fn detects_carrier_with_multiple_harmonics() {
        let fc = 100_000.0;
        let c = campaign(fc);
        let traces = all_harmonic_scores(&c, 5, &HeuristicConfig::default());
        let det_cfg = DetectorConfig::default();
        let detections: Vec<Detection> = traces
            .iter()
            .flat_map(|t| detect_in_trace(t, &det_cfg))
            .collect();
        assert!(!detections.is_empty());
        let carriers = merge_detections(&c, detections, &det_cfg);
        assert_eq!(carriers.len(), 1, "carriers: {carriers:?}");
        let carrier = &carriers[0];
        assert!((carrier.frequency().hz() - fc).abs() < 200.0);
        assert!(carrier.has_harmonic(1) && carrier.has_harmonic(-1));
        assert!(carrier.has_harmonic(3) && carrier.has_harmonic(-3));
        assert!(!carrier.has_harmonic(2));
        // Carrier magnitude −100 dBm; side-bands ≈ −117 dBm.
        assert!((carrier.magnitude().dbm() - -100.0).abs() < 1.0);
        assert!((carrier.sideband_magnitude().dbm() - -117.0).abs() < 1.5);
    }

    #[test]
    fn flat_campaign_detects_nothing() {
        let config = CampaignConfig::builder()
            .band(Hertz(0.0), Hertz(200_000.0))
            .resolution(Hertz(100.0))
            .alternation(Hertz(20_000.0), Hertz(500.0), 5)
            .build()
            .unwrap();
        let bins = config.bins();
        let spectra: Vec<Spectrum> = (0..5)
            .map(|i| {
                // Mild deterministic ripple, identical across spectra.
                let p: Vec<f64> = (0..bins)
                    .map(|b| 1e-14 * (1.0 + 0.2 * (((b * 31 + i) % 17) as f64 / 17.0)))
                    .collect();
                Spectrum::new(Hertz(0.0), Hertz(100.0), p).unwrap()
            })
            .collect();
        let c = campaign_from_spectra(config, spectra).unwrap();
        let traces = all_harmonic_scores(&c, 5, &HeuristicConfig::default());
        let det_cfg = DetectorConfig::default();
        let detections: Vec<Detection> = traces
            .iter()
            .flat_map(|t| detect_in_trace(t, &det_cfg))
            .collect();
        let carriers = merge_detections(&c, detections, &det_cfg);
        assert!(carriers.is_empty(), "false positives: {carriers:?}");
    }

    #[test]
    fn min_harmonics_filters_single_votes() {
        let fc = 100_000.0;
        let c = campaign(fc);
        let traces = all_harmonic_scores(&c, 1, &HeuristicConfig::default());
        let cfg = DetectorConfig {
            min_harmonics: 3,
            // Disable the single-harmonic escape hatch for this test.
            single_harmonic_min_support: usize::MAX,
            ..DetectorConfig::default()
        };
        let detections: Vec<Detection> = traces
            .iter()
            .flat_map(|t| detect_in_trace(t, &cfg))
            .collect();
        // Only ±1 available but 3 required.
        let carriers = merge_detections(&c, detections, &cfg);
        assert!(carriers.is_empty());
    }

    #[test]
    fn empty_detections_are_fine() {
        let c = campaign(100_000.0);
        assert!(merge_detections(&c, Vec::new(), &DetectorConfig::default()).is_empty());
    }
}
