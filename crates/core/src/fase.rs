//! The top-level FASE analyzer.

use crate::detector::{detect_in_trace, merge_detections, Detection, DetectorConfig};
use crate::error::FaseError;
use crate::heuristic::{all_harmonic_scores_recorded, par_map, HeuristicConfig};
use crate::report::FaseReport;
use crate::spectra::CampaignSpectra;
use fase_obs::{span, Recorder};

/// Tunables of a FASE analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaseConfig {
    /// Highest harmonic of `f_alt` to score (the paper detects the 1st–5th
    /// positive and negative harmonics).
    pub max_harmonic: u32,
    /// Heuristic evaluation parameters.
    pub heuristic: HeuristicConfig,
    /// Peak detection and evidence-merging parameters.
    pub detector: DetectorConfig,
    /// Relative tolerance when grouping carriers into harmonic sets.
    pub group_rel_tol: f64,
}

impl Default for FaseConfig {
    fn default() -> FaseConfig {
        FaseConfig {
            max_harmonic: 5,
            heuristic: HeuristicConfig::default(),
            detector: DetectorConfig::default(),
            group_rel_tol: 0.003,
        }
    }
}

/// The FASE analyzer: consumes campaign spectra, produces a report of
/// activity-modulated carriers.
///
/// `Fase` never sees the simulator: it operates purely on `(frequency,
/// power)` spectra, exactly as the paper's methodology operates on spectrum
/// -analyzer captures. Feed it real SDR data if you have some.
///
/// # Examples
///
/// ```
/// use fase_core::{CampaignConfig, Fase, FaseConfig};
/// use fase_core::heuristic::campaign_from_spectra;
/// use fase_dsp::{Hertz, Spectrum};
///
/// // Synthetic campaign: carrier at 50 kHz with side-bands that move with
/// // f_alt (i.e. genuinely activity-modulated).
/// let config = CampaignConfig::builder()
///     .band(Hertz(0.0), Hertz(100_000.0))
///     .resolution(Hertz(100.0))
///     .alternation(Hertz(20_000.0), Hertz(500.0), 5)
///     .build()?;
/// let spectra = config
///     .alternation_frequencies()
///     .iter()
///     .map(|f_alt| {
///         let mut p = vec![1e-14; config.bins()];
///         p[500] = 1e-10; // carrier at 50 kHz
///         p[500 + (f_alt.hz() / 100.0) as usize] = 2e-12;
///         p[500 - (f_alt.hz() / 100.0) as usize] = 2e-12;
///         Spectrum::new(Hertz(0.0), Hertz(100.0), p).unwrap()
///     })
///     .collect();
/// let campaign = campaign_from_spectra(config, spectra)?;
/// let report = Fase::new(FaseConfig::default()).analyze(&campaign)?;
/// assert_eq!(report.len(), 1);
/// assert!((report.carriers()[0].frequency().hz() - 50_000.0).abs() < 200.0);
/// # Ok::<(), fase_core::FaseError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Fase {
    config: FaseConfig,
    recorder: Recorder,
}

impl Fase {
    /// Creates an analyzer with the given configuration. Metrics go to the
    /// process-wide recorder (inert unless [`fase_obs::enable`] was called).
    pub fn new(config: FaseConfig) -> Fase {
        Fase {
            config,
            recorder: Recorder::global(),
        }
    }

    /// Replaces the metrics [`Recorder`] used by [`analyze`](Fase::analyze)
    /// — e.g. [`Recorder::detached`] for an isolated sink in tests.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> Fase {
        self.recorder = recorder;
        self
    }

    /// The analyzer configuration.
    pub fn config(&self) -> &FaseConfig {
        &self.config
    }

    /// Runs the full FASE pipeline: score every harmonic, pick peaks,
    /// merge evidence into carriers, group harmonic sets. Scoring and
    /// per-trace peak picking run on the worker pool; detections are
    /// concatenated in trace order, so the report is the same for any
    /// thread count.
    ///
    /// # Errors
    ///
    /// Returns [`FaseError::InvalidConfig`] if `max_harmonic` is zero.
    pub fn analyze(&self, spectra: &CampaignSpectra) -> Result<FaseReport, FaseError> {
        if self.config.max_harmonic == 0 {
            return Err(FaseError::invalid_config("max_harmonic must be at least 1"));
        }
        let _analyze = span!(self.recorder, "analyze");
        let traces = {
            let _score = span!(self.recorder, "score");
            all_harmonic_scores_recorded(
                spectra,
                self.config.max_harmonic,
                &self.config.heuristic,
                &self.recorder,
            )
        };
        let detections: Vec<Detection> = {
            let _detect = span!(self.recorder, "detect");
            par_map(&traces, |t| detect_in_trace(t, &self.config.detector))
                .into_iter()
                .flatten()
                .collect()
        };
        self.recorder
            .count_usize("core.detections", detections.len());
        let _group = span!(self.recorder, "group");
        let carriers = merge_detections(spectra, detections, &self.config.detector);
        let mut report =
            FaseReport::from_carriers(carriers, self.config.group_rel_tol).with_traces(traces);
        if let Some(health) = spectra.health() {
            report = report.with_health(health.clone());
        }
        self.recorder.count_usize("core.carriers", report.len());
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CampaignConfig;
    use fase_dsp::{Hertz, Spectrum};

    fn config() -> CampaignConfig {
        CampaignConfig::builder()
            .band(Hertz(0.0), Hertz(200_000.0))
            .resolution(Hertz(100.0))
            .alternation(Hertz(20_000.0), Hertz(500.0), 5)
            .build()
            .unwrap()
    }

    fn modulated_campaign(fcs: &[f64]) -> CampaignSpectra {
        let config = config();
        let bins = config.bins();
        let spectra: Vec<Spectrum> = config
            .alternation_frequencies()
            .iter()
            .map(|f_alt| {
                let mut p = vec![1e-14; bins];
                for &fc in fcs {
                    p[(fc / 100.0) as usize] = 1e-10;
                    for h in [-1i32, 1] {
                        let b = ((fc + h as f64 * f_alt.hz()) / 100.0).round() as i64;
                        if (0..bins as i64).contains(&b) {
                            p[b as usize] = 2e-12;
                        }
                    }
                }
                Spectrum::new(Hertz(0.0), Hertz(100.0), p).unwrap()
            })
            .collect();
        crate::heuristic::campaign_from_spectra(config, spectra).unwrap()
    }

    #[test]
    fn end_to_end_single_carrier() {
        let campaign = modulated_campaign(&[100_000.0]);
        let report = Fase::new(FaseConfig::default()).analyze(&campaign).unwrap();
        assert_eq!(report.len(), 1);
        let c = &report.carriers()[0];
        assert!((c.frequency().hz() - 100_000.0).abs() < 200.0);
        assert!(c.has_harmonic(1) && c.has_harmonic(-1));
        assert_eq!(report.score_traces().len(), 10);
        assert!(report.score_trace(1).is_some());
        assert!(report.score_trace(-5).is_some());
        assert!(report.score_trace(6).is_none());
    }

    #[test]
    fn end_to_end_two_carriers() {
        let campaign = modulated_campaign(&[80_000.0, 150_000.0]);
        let report = Fase::new(FaseConfig::default()).analyze(&campaign).unwrap();
        assert_eq!(report.len(), 2);
        assert!(report.carrier_near(Hertz(80_000.0), Hertz(300.0)).is_some());
        assert!(report
            .carrier_near(Hertz(150_000.0), Hertz(300.0))
            .is_some());
    }

    #[test]
    fn parallel_detect_matches_sequential_pipeline() {
        let campaign = modulated_campaign(&[60_000.0, 110_000.0, 150_000.0]);
        let config = FaseConfig::default();
        let report = Fase::new(config).analyze(&campaign).unwrap();
        assert!(report.len() >= 2, "carriers: {}", report.len());

        let traces = crate::heuristic::all_harmonic_scores(
            &campaign,
            config.max_harmonic,
            &config.heuristic,
        );
        let mut detections = Vec::new();
        for trace in &traces {
            detections.extend(detect_in_trace(trace, &config.detector));
        }
        let carriers = merge_detections(&campaign, detections, &config.detector);
        let serial = FaseReport::from_carriers(carriers, config.group_rel_tol).with_traces(traces);
        assert_eq!(report.to_json(), serial.to_json());
    }

    #[test]
    fn zero_harmonics_rejected() {
        let campaign = modulated_campaign(&[100_000.0]);
        let fase = Fase::new(FaseConfig {
            max_harmonic: 0,
            ..FaseConfig::default()
        });
        assert!(matches!(
            fase.analyze(&campaign),
            Err(FaseError::InvalidConfig(_))
        ));
    }

    #[test]
    fn analyze_records_stage_spans_and_counters() {
        let campaign = modulated_campaign(&[100_000.0]);
        let rec = Recorder::detached();
        let fase = Fase::default().with_recorder(rec.clone());
        fase.analyze(&campaign).unwrap();
        let snap = rec.snapshot();
        for path in [
            "analyze",
            "analyze/score",
            "analyze/detect",
            "analyze/group",
        ] {
            assert!(
                snap.spans.contains_key(path),
                "missing span {path}: {:?}",
                snap.spans.keys().collect::<Vec<_>>()
            );
        }
        assert_eq!(snap.counters.get("core.carriers"), Some(&1));
        assert!(snap.counters.contains_key("core.heuristic.bins_scored"));
    }
}
