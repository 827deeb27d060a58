//! # fase-dsp — DSP substrate for the FASE reproduction
//!
//! Everything signal-processing that the rest of the workspace builds on,
//! implemented from scratch:
//!
//! * [`Complex64`] — IQ samples.
//! * [`fft`] — radix-2 and Bluestein FFTs behind a reusable [`FftPlan`].
//! * [`Window`] — spectral windows with coherent gain / ENBW bookkeeping.
//! * [`Spectrum`] — the uniformly sampled power spectrum every pipeline
//!   stage exchanges (linear-milliwatt storage, dBm views).
//! * [`peaks`] — Palshikar-style spike detection and parabolic refinement.
//! * [`demod`] — envelope (AM) and instantaneous-frequency (FM)
//!   demodulators, retuning, spectrograms, and AM-vs-FM classification.
//! * [`fir`] — windowed-sinc lowpass/bandpass filter design (the receiver
//!   chain's channel filters).
//! * [`noise`] — seeded real and circular-complex Gaussian draws.
//! * [`rng`] — the self-contained SplitMix64 PRNG every stochastic
//!   component draws from (no external `rand` dependency).
//! * [`stats`] — small robust-statistics helpers.
//! * [`units`] — [`Hertz`], [`Seconds`], [`Decibels`], [`Dbm`] newtypes.
//!
//! ## Example: locate a tone in a noisy spectrum
//!
//! ```
//! use fase_dsp::{fft::fft, Complex64, Hertz, Spectrum, Window};
//! use fase_dsp::peaks::{find_peaks, PeakConfig};
//!
//! // 1 kHz complex tone sampled at 16 kHz.
//! let n = 1024;
//! let fs = 16_000.0;
//! let mut iq: Vec<Complex64> = (0..n)
//!     .map(|t| Complex64::cis(std::f64::consts::TAU * 1000.0 * t as f64 / fs))
//!     .collect();
//! Window::Hann.apply_complex(&mut iq);
//! let bins = fft(&iq);
//! let power: Vec<f64> = bins.iter().map(|z| z.norm_sqr()).collect();
//! let spectrum = Spectrum::new(Hertz(0.0), Hertz(fs / n as f64), power)?;
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
pub use window::Window;
