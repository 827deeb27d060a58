//! # fase — Finding Amplitude-modulated Side-channel Emanations
//!
//! A from-scratch Rust reproduction of the FASE methodology from
//! *"FASE: Finding Amplitude-modulated Side-channel Emanations"*
//! (Callan, Zajić, Prvulovic — ISCA 2015).
//!
//! FASE automatically finds periodic electromagnetic signals ("carriers")
//! emanated by a computer system whose amplitude is modulated by specific
//! program activity — e.g. switching-regulator harmonics modulated by CPU or
//! DRAM power draw, memory-refresh pulse trains, and spread-spectrum DRAM
//! clocks — while rejecting the thousands of signals (AM radio broadcasts,
//! unmodulated spurs, noise) that are *not* modulated by that activity.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`dsp`] — FFT, windows, spectra, peak detection, noise (substrate).
//! * [`sysmodel`] — the micro-architectural activity model: caches, the X/Y
//!   alternation micro-benchmark of the paper's Figure 6, the DDR3 memory
//!   controller with refresh postponement.
//! * [`emsim`] — the physics-based EM emanation simulator standing in for
//!   the paper's antenna + real machines: regulators, refresh pulse trains,
//!   spread-spectrum clocks, AM radio interference, a noisy channel.
//! * [`specan`] — the spectrum-analyzer model (IQ capture, RBW, averaging)
//!   and the campaign engine that runs the paper's §3 procedure.
//! * [`core`] — the FASE methodology itself: the Eq. (1)/(2) heuristic,
//!   campaign orchestration, carrier detection/grouping/classification.
//! * [`baseline`] — the naive detectors the paper argues against.
//! * [`obs`] — the observability layer: hierarchical timing spans,
//!   counters and histograms, deterministic JSON metrics export.
//!
//! ## Quickstart
//!
//! ```no_run
//! use fase::prelude::*;
//!
//! // The paper's Intel Core i7 desktop, driven by the LDM/LDL1
//! // (main-memory vs. L1-hit) alternation micro-benchmark.
//! // The factory builds the system once per alternation frequency.
//! let spectra = run_campaign_with_options(
//!     &CampaignConfig::paper_0_4mhz(),
//!     ActivityPair::LdmLdl1,
//!     |_| SimulatedSystem::intel_i7_desktop(42),
//!     7,
//!     CampaignOptions::default(),
//! )?;
//! let report = Fase::new(FaseConfig::default()).analyze(&spectra)?;
//! for carrier in report.carriers() {
//!     println!("{carrier}");
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `examples/` for realistic end-to-end campaigns and the `fase-bench`
//! crate for the binaries that regenerate every figure of the paper.

pub mod audit;

pub use fase_baseline as baseline;
pub use fase_core as core;
pub use fase_dsp as dsp;
pub use fase_emsim as emsim;
pub use fase_obs as obs;
pub use fase_serve as serve;
pub use fase_specan as specan;
pub use fase_sysmodel as sysmodel;

/// Convenient glob-import surface for examples and downstream users.
pub mod prelude {
    pub use fase_core::{
        classify_by_pairs, estimate_all, evaluate_mitigation, CampaignConfig, CampaignSpectra,
        Carrier, ClassifiedCarrier, Fase, FaseConfig, FaseReport, Harmonic, HarmonicSet,
        LeakageEstimate, MitigationOutcome, ModulationClass,
    };
    pub use fase_dsp::{Dbm, Decibels, Hertz, Seconds, Spectrum};
    pub use fase_emsim::{RefreshPolicy, Scene, SimulatedSystem};
    pub use fase_obs::Recorder;
    pub use fase_specan::{
        measure_alternation, run_campaign_with_options, CampaignOptions, SpectrumAnalyzer,
    };
    pub use fase_sysmodel::{Activity, ActivityPair, Machine};
}
