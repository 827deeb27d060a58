//! # fase-core — the FASE methodology
//!
//! The primary contribution of *"FASE: Finding Amplitude-modulated
//! Side-channel Emanations"* (ISCA 2015), reimplemented as a library:
//!
//! 1. **Campaign configuration** ([`CampaignConfig`]): a band, a spectrum
//!    resolution, and a family of alternation frequencies
//!    `f_alt1 … f_alt1 + (N−1)·f_Δ` (paper Figure 10).
//! 2. **The heuristic** ([`heuristic`]): Eq. (1)/(2) — each spectrum is
//!    read at its own shifted frequency `f + h·f_alt_i` and normalized by
//!    the *other* spectra at the same frequency, so only side-bands that
//!    *move with* `f_alt` score highly.
//! 3. **Detection** ([`detector`]): robust peak-picking of every harmonic's
//!    score trace and cross-harmonic evidence merging into [`Carrier`]s.
//! 4. **Interpretation**: harmonic-set grouping ([`grouping`]), duty-cycle
//!    clues, modulation depth, differential classification by activity
//!    pair ([`classify`]), and information-leakage quantification
//!    ([`leakage`]).
//! 5. **Fusion and detection quality** ([`fusion`]): K channels' reports
//!    fused into two per-scene statistics ([`fuse_reports`]), and the
//!    ROC/precision-recall helpers that score them over a labeled
//!    population.
//!
//! This crate is measurement-agnostic: it consumes [`fase_dsp::Spectrum`]
//! values and never references the simulator, so it can analyze real
//! spectrum-analyzer or SDR captures unchanged.
//!
//! ```
//! use fase_core::{CampaignConfig, Fase};
//! use fase_dsp::Hertz;
//! let config = CampaignConfig::paper_0_4mhz();
//! assert_eq!(config.alternation_frequencies().len(), 5);
//! let analyzer = Fase::default();
//! assert_eq!(analyzer.config().max_harmonic, 5);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod carrier;
pub mod classify;
pub mod config;
pub mod detector;
pub mod error;
pub mod fase;
pub mod fusion;
pub mod grouping;
pub mod health;
pub mod heuristic;
pub mod leakage;
pub mod merge;
pub mod mitigation;
pub mod par;
pub mod report;
pub mod sideband;
pub mod spectra;

pub use carrier::{Carrier, Harmonic};
pub use classify::{classify_by_pairs, ClassifiedCarrier, ModulationClass};
pub use config::{CampaignConfig, CampaignConfigBuilder};
pub use error::FaseError;
pub use fase::{Fase, FaseConfig};
pub use fusion::{
    average_precision, fuse_reports, roc_auc, roc_points, single_channel_statistic,
    FusedStatistics, RocPoint,
};
pub use grouping::HarmonicSet;
pub use health::{CampaignHealth, DroppedAlternation, FaultRecord};
pub use heuristic::{HeuristicConfig, ScoreTrace};
pub use leakage::{estimate_all, estimate_leakage, LeakageEstimate};
pub use merge::merge_band_reports;
pub use mitigation::{evaluate_mitigation, CarrierFate, MitigationOutcome};
pub use report::FaseReport;
pub use sideband::{attribute_peak, Attribution};
pub use spectra::{CampaignSpectra, LabeledSpectrum};
