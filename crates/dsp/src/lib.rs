//! # fase-dsp — DSP substrate for the FASE reproduction
//!
//! Everything signal-processing that the rest of the workspace builds on,
//! implemented from scratch:
//!
//! * [`Complex64`] — IQ samples.
//! * [`fft`] — radix-2 and Bluestein FFTs behind a reusable [`FftPlan`].
//! * [`Spectrum`] — the uniformly sampled power spectrum every pipeline
//!   stage exchanges (linear-milliwatt storage, dBm views), and
//!   [`Spectrum::from_capture`], the calibrated Blackman–Harris estimator
//!   that turns a complex-baseband capture into one.
//! * [`window`] — the Blackman–Harris tables (coherent gain, ENBW) of the
//!   estimator and the Hann windows of the spectrogram and FIR design.
//! * [`peaks`] — Palshikar-style spike detection and parabolic refinement.
//! * [`demod`] — envelope (AM) and instantaneous-frequency (FM)
//!   demodulators, retuning, spectrograms, and AM-vs-FM classification.
//! * [`fir`] — windowed-sinc lowpass filter design (the receiver
//!   chain's channel filters).
//! * [`memo`] — bounded process-wide memos for deterministic results.
//! * [`noise`] — seeded real and circular-complex Gaussian draws.
//! * [`rng`] — the self-contained SplitMix64 PRNG every stochastic
//!   component draws from (no external `rand` dependency).
//! * [`stats`] — small robust-statistics helpers.
//! * [`units`] — [`Hertz`], [`Seconds`], [`Decibels`], [`Dbm`] newtypes.
//!
//! ## Example: locate a tone in a noisy spectrum
//!
//! ```
//! use fase_dsp::{Complex64, Hertz, Spectrum};
//! use fase_dsp::peaks::{find_peaks, PeakConfig};
//!
//! // 1 kHz complex tone sampled at 16 kHz, captured around DC.
//! let n = 1024;
//! let fs = 16_000.0;
//! let iq: Vec<Complex64> = (0..n)
//!     .map(|t| Complex64::cis(std::f64::consts::TAU * 1000.0 * t as f64 / fs))
//!     .collect();
//! let spectrum = Spectrum::from_capture(Hertz(0.0), fs, &iq)?;
//! let peaks = find_peaks(spectrum.powers(), &PeakConfig::default());
//! assert_eq!(spectrum.frequency_at(peaks[0].index), Hertz(1000.0));
//! # Ok::<(), fase_dsp::SpectrumError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod complex;
pub mod demod;
pub mod fft;
pub mod fir;
pub mod memo;
pub mod noise;
pub mod peaks;
pub mod rng;
pub mod spectrum;
pub mod stats;
pub mod units;
pub mod window;

pub use complex::Complex64;
pub use fft::{cached_plan, FftPlan};
pub use spectrum::{Spectrum, SpectrumError};
pub use units::{Dbm, Decibels, Hertz, Seconds};
