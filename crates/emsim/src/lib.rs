//! # fase-emsim — a physics-based EM emanation simulator
//!
//! Stands in for the FASE paper's measurement hardware (antenna + spectrum
//! analyzer + real machines). Sources model the physical mechanisms the
//! paper identifies, each with the non-idealities §2.1 catalogs:
//!
//! * [`regulator::SwitchingRegulator`] — fixed-frequency PWM regulators: an
//!   RC-oscillator pulse train whose duty cycle tracks the powered domain's
//!   load, AM-modulating every harmonic (§4.1).
//! * [`regulator::FmRegulator`] — the constant-on-time (frequency-
//!   modulated) regulator of §4.4 that FASE must reject.
//! * [`refresh::RefreshSource`] — DRAM refresh pulses at the memory
//!   controller's actual command times; postponement under load spreads the
//!   spectrum (§4.2).
//! * [`clock::ClockSource`] — fixed or spread-spectrum clocks, optionally
//!   amplitude-modulated by a domain's switching activity (§4.3).
//! * [`interference`] — AM broadcast stations, unmodulated spur forests,
//!   broadband rolling noise: the rejection workload.
//! * [`channel::Channel`] — flat gain plus receiver thermal noise.
//! * [`timedomain`] — brute-force numerical downconversion of rectangular
//!   waveforms: the assumption-free oracle the analytic sources are
//!   validated against.
//!
//! A [`Scene`] sums sources into complex-baseband captures
//! ([`CaptureWindow`]); [`SimulatedSystem`] pairs a scene with the
//! micro-architectural model from `fase-sysmodel` and a refresh policy.
//! Presets reproduce the paper's Intel Core i7 desktop and AMD Turion X2
//! laptop.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod channel;
pub mod clock;
pub mod ctx;
pub mod interference;
mod memo;
pub mod phasor;
pub mod refresh;
pub mod regulator;
pub mod scene;
pub mod source;
pub mod timedomain;

pub use ctx::{CaptureWindow, RenderCtx};
pub use phasor::SynthMode;
pub use scene::{RefreshPolicy, Scene, SimulatedSystem};
pub use source::{EmSource, SourceInfo, SourceKind};
