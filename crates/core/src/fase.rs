//! The top-level FASE analyzer.

use crate::detector::{detect_in_trace, merge_detections, Detection, DetectorConfig};
use crate::error::FaseError;
use crate::heuristic::{all_harmonic_scores, search_window, HeuristicConfig};
use crate::par::par_map;
use crate::report::FaseReport;
use crate::spectra::CampaignSpectra;
use fase_obs::Recorder;

/// Highest harmonic of `f_alt` FASE scores: the paper detects the
/// 1st–5th positive and negative harmonics.
pub const MAX_HARMONIC: u32 = 5;

/// Relative frequency tolerance when grouping carriers into harmonic sets.
pub const GROUP_REL_TOL: f64 = 0.003;

/// Tunables of a FASE analysis.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaseConfig {
    /// Heuristic evaluation parameters.
    pub heuristic: HeuristicConfig,
    /// Peak detection and evidence-merging parameters.
    pub detector: DetectorConfig,
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
    /// merge evidence into carriers, group harmonic sets. The score traces
    /// are dropped once their peaks are picked. Scoring and
    /// per-trace peak picking share the capture pool's thread budget
    /// ([`crate::par::par_map`]); detections are concatenated in trace
    /// order, so the report is the same for any thread count.
    ///
    /// # Errors
    ///
    /// None at present: every campaign [`CampaignSpectra`] admits can be
    /// analysed.
    pub fn analyze(&self, spectra: &CampaignSpectra) -> Result<FaseReport, FaseError> {
        let _analyze = self.recorder.span("analyze");
        let traces = {
            let _score = self.recorder.span("score");
            self.record_scoring(spectra);
            all_harmonic_scores(spectra, MAX_HARMONIC, &self.config.heuristic)
        };
        let detections: Vec<Detection> = {
            let _detect = self.recorder.span("detect");
            par_map(&traces, |t| detect_in_trace(t, &self.config.detector))
                .into_iter()
                .flatten()
                .collect()
        };
        self.recorder
            .count_usize("core.detections", detections.len());
        let _group = self.recorder.span("group");
        let carriers = merge_detections(spectra, detections, &self.config.detector);
        let mut report = FaseReport::from_carriers(carriers, GROUP_REL_TOL);
        if let Some(health) = spectra.health() {
            report = report.with_health(health.clone());
        }
        self.recorder.count_usize("core.carriers", report.len());
        Ok(report)
    }

    /// Records the scoring stage's work: one windowed-max pass per
    /// spectrum, one bin scored per bin and harmonic, and the search-window
    /// clamp — a counter when the configured `search_bins` had to shrink
    /// below the f_Δ spacing, and a warning when it shrank to a point
    /// lookup.
    fn record_scoring(&self, spectra: &CampaignSpectra) {
        let (search, clamped) = search_window(spectra, &self.config.heuristic);
        if clamped {
            self.recorder
                .count("core.heuristic.search_window_clamped", 1);
            if search == 0 {
                self.recorder.warn("core.heuristic.search_window_collapsed");
            }
        }
        self.recorder
            .count_usize("core.heuristic.windowed_max_passes", spectra.len());
        let harmonics = 2 * MAX_HARMONIC as usize;
        self.recorder.count_usize(
            "core.heuristic.bins_scored",
            spectra.spectrum(0).len().saturating_mul(harmonics),
        );
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

        let traces =
            crate::heuristic::all_harmonic_scores(&campaign, MAX_HARMONIC, &config.heuristic);
        let mut detections = Vec::new();
        for trace in &traces {
            detections.extend(detect_in_trace(trace, &config.detector));
        }
        let carriers = merge_detections(&campaign, detections, &config.detector);
        let serial = FaseReport::from_carriers(carriers, GROUP_REL_TOL);
        assert_eq!(report.to_json(), serial.to_json());
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
