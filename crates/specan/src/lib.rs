//! # fase-specan — the spectrum-analyzer model and campaign engine
//!
//! Stands in for the paper's Agilent MXA N9020A (§3):
//!
//! * [`capture_spectrum`] — the Blackman–Harris windowed-FFT power
//!   spectrum of a complex-baseband capture, calibrated in dBm.
//! * [`SweepPlan`] — tiles a wide band into FFT-sized capture segments
//!   whose spectra stitch seamlessly.
//! * [`run_campaign_with_options`] — drives the full §3 procedure against
//!   a [`fase_emsim::SimulatedSystem`] on a pool of capture tasks:
//!   calibrate the X/Y micro-benchmark at each `f_alt_i`, execute it,
//!   schedule refreshes, render the EM scene, capture, average (the paper
//!   averages four captures), stitch, and label each spectrum with the
//!   *achieved* alternation frequency. [`measure_alternation`] runs one
//!   alternation frequency's share of the same campaign.
//! * [`capture_iq`] / [`probe_modulation`] — raw IQ capture and AM/FM
//!   classification of a single carrier (§4.4).
//!
//! The output is a [`fase_core::CampaignSpectra`], ready for
//! [`fase_core::Fase::analyze`].
//!
//! On top of single-band campaigns, the crate provides the wide-band
//! sweep machinery of paper §3: [`plan_bands`] shards a span into
//! overlapping bands, [`run_sweep`] captures every missed band on one
//! capture pool, runs a campaign's reduce and analysis per band and
//! merges the reports, and [`CaptureCache`] persists reduced band captures
//! content-addressed so interrupted or repeated sweeps skip synthesis.
//! [`run_multichannel_sweep`] runs one sweep through K receiver-noise
//! realizations and fuses them with [`fase_core::fuse_reports`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analyzer;
pub mod antenna;
pub mod cache;
pub mod cancel;
pub mod fault;
pub mod multichannel;
pub mod probe;
pub mod runner;
pub mod scheduler;
pub mod sweep;

pub use analyzer::capture_spectrum;
pub use antenna::AntennaResponse;
pub use cache::{CacheKey, CaptureCache};
pub use cancel::CancelToken;
pub use fault::{FaultKind, FaultPlan};
pub use multichannel::{run_multichannel_sweep, MultiSweepOutcome};
pub use probe::{capture_iq, probe_modulation, IqCapture};
pub use runner::{
    measure_alternation, run_campaign_with_options, CampaignOptions, DEFAULT_MAX_ATTEMPTS,
    DEFAULT_MAX_FFT,
};
pub use scheduler::{run_sweep, BandOutcome, Shard, SweepConfig, SweepOptions, SweepOutcome};
pub use sweep::{plan_bands, SegmentSpec, SweepBand, SweepPlan};
