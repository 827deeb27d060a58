//! The [`EmSource`] trait and shared oscillator building blocks.

use crate::ctx::{CaptureWindow, RenderCtx};
use fase_dsp::noise::standard_normal;
use fase_dsp::rng::Rng;
use fase_dsp::{Complex64, Hertz};
use fase_sysmodel::Domain;
use std::fmt;

/// What kind of physical mechanism a source models (ground truth used by
/// tests and experiment reports; FASE itself never sees this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceKind {
    /// A switching voltage regulator (duty-cycle / PWM ⇒ AM).
    SwitchingRegulator,
    /// A constant-on-time regulator whose switching *frequency* tracks load
    /// (FM — must not be reported by FASE).
    FmRegulator,
    /// DRAM refresh command pulse train.
    MemoryRefresh,
    /// A (possibly spread-spectrum) digital clock.
    Clock,
    /// An AM radio broadcast station (modulated, but not by program
    /// activity).
    AmBroadcast,
    /// An unmodulated periodic spur.
    Spur,
    /// Broadband rolling noise.
    BroadbandNoise,
}

impl fmt::Display for SourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            SourceKind::SwitchingRegulator => "switching-regulator",
            SourceKind::FmRegulator => "fm-regulator",
            SourceKind::MemoryRefresh => "memory-refresh",
            SourceKind::Clock => "clock",
            SourceKind::AmBroadcast => "am-broadcast",
            SourceKind::Spur => "spur",
            SourceKind::BroadbandNoise => "broadband-noise",
        };
        f.write_str(name)
    }
}

/// Ground-truth description of a source.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceInfo {
    /// Human-readable name ("DRAM regulator").
    pub name: String,
    /// Mechanism kind.
    pub kind: SourceKind,
    /// Fundamental frequency of the periodic behaviour (0 Hz for noise).
    pub fundamental: Hertz,
    /// The power domain whose activity modulates this source, if any.
    pub modulated_by: Option<Domain>,
}

/// A physical EM emanation source.
///
/// Sources add their complex-baseband contribution for a capture window
/// into a shared buffer. A render is a pure function of the source, the
/// window and the [`RenderCtx`]: a stochastic source (phase noise, drift,
/// programme) starts every render from a clone of its construction-time
/// generator and never writes it back, so one source serves every capture
/// of a campaign, from any thread.
pub trait EmSource: fmt::Debug + Send + Sync {
    /// Ground-truth description.
    fn info(&self) -> SourceInfo;

    /// Adds this source's contribution for `window` into `out`
    /// (`out.len() == window.len()`).
    fn render(&self, window: &CaptureWindow, ctx: &RenderCtx<'_>, out: &mut [Complex64]);

    /// Ground-truth frequencies of the individual unmodulated spurs this
    /// source emits; empty for every source but a spur forest.
    fn spur_frequencies(&self) -> Vec<Hertz> {
        Vec::new()
    }
}

/// A slowly drifting frequency-offset process (first-order Gauss–Markov in
/// continuous time): gives oscillators a finite, roughly Gaussian line
/// width, like the RC oscillators in switching regulators (paper Fig. 12).
///
/// Parameters are physical (`sigma` in Hz, `tau` in seconds) so the
/// process behaves identically at any capture sample rate.
#[derive(Debug, Clone)]
pub struct FreqDrift {
    /// Stationary standard deviation of the frequency offset in Hz.
    sigma: f64,
    /// Correlation time in seconds.
    tau: f64,
    state: f64,
}

impl FreqDrift {
    /// Creates a drift process.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or `tau` is not positive.
    pub fn new(sigma_hz: f64, tau_seconds: f64) -> FreqDrift {
        assert!(sigma_hz >= 0.0, "sigma must be non-negative");
        assert!(tau_seconds > 0.0, "tau must be positive");
        FreqDrift {
            sigma: sigma_hz,
            tau: tau_seconds,
            state: 0.0,
        }
    }

    /// A perfectly stable oscillator (crystal-like, zero drift).
    pub fn crystal() -> FreqDrift {
        FreqDrift {
            sigma: 0.0,
            tau: 1.0,
            state: 0.0,
        }
    }

    /// Advances by `dt` seconds and returns the current offset in Hz.
    pub fn step<R: Rng + ?Sized>(&mut self, dt: f64, rng: &mut R) -> f64 {
        if self.sigma == 0.0 {
            return 0.0;
        }
        let alpha = (-dt / self.tau).exp();
        let innovation = self.sigma * (1.0 - alpha * alpha).sqrt();
        self.state = alpha * self.state + innovation * standard_normal(rng);
        self.state
    }
}

/// Amplitude of harmonic `k` (k ≥ 1) of a unit rectangular pulse train
/// with duty cycle `d`: `|c_k| = 2·sin(πkd)/(πk)`.
///
/// Encodes the §2.1 facts the paper leans on: at d = 0.5 even harmonics
/// vanish; at small d the first harmonics are all of similar strength; and
/// the amplitude of *every* harmonic depends on d, so duty-cycle (PWM)
/// modulation AM-modulates the whole harmonic family.
pub fn pulse_harmonic_amplitude(k: u32, duty: f64) -> f64 {
    assert!(k >= 1, "harmonics are numbered from 1");
    let kd = std::f64::consts::PI * k as f64 * duty;
    2.0 * kd.sin().abs() / (std::f64::consts::PI * k as f64)
}

/// The harmonic numbers of `fundamental` that land inside `window`
/// (with `guard` margin), capped at `max_harmonics` to bound render cost.
pub fn harmonics_in_window(
    fundamental: Hertz,
    window: &CaptureWindow,
    guard: Hertz,
    max_harmonics: u32,
) -> Vec<u32> {
    if fundamental.hz() <= 0.0 {
        return Vec::new();
    }
    let lo = ((window.low_edge().hz() - guard.hz()) / fundamental.hz())
        .ceil()
        .max(1.0);
    let hi = ((window.high_edge().hz() + guard.hz()) / fundamental.hz()).floor();
    if hi < lo || lo > max_harmonics as f64 {
        return Vec::new();
    }
    let hi = hi.min(max_harmonics as f64) as u32;
    (lo as u32..=hi).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fase_dsp::rng::SmallRng;

    #[test]
    fn pulse_harmonics_at_half_duty() {
        // 50% duty: odd harmonics 2/(πk), even harmonics zero.
        assert!((pulse_harmonic_amplitude(1, 0.5) - 2.0 / std::f64::consts::PI).abs() < 1e-12);
        assert!(pulse_harmonic_amplitude(2, 0.5) < 1e-12);
        assert!(
            (pulse_harmonic_amplitude(3, 0.5) - 2.0 / (3.0 * std::f64::consts::PI)).abs() < 1e-12
        );
    }

    #[test]
    fn small_duty_harmonics_similar_strength() {
        // Paper §4.2: a <3% duty pulse train has first harmonics of similar
        // strength (≈ 2d each).
        let d = 0.0256;
        let c1 = pulse_harmonic_amplitude(1, d);
        let c5 = pulse_harmonic_amplitude(5, d);
        assert!((c1 - 2.0 * d).abs() / (2.0 * d) < 0.01);
        assert!(c5 / c1 > 0.9);
    }

    #[test]
    fn duty_modulates_all_harmonics() {
        // Raising duty from 0.3 to 0.35 changes every harmonic's amplitude.
        for k in 1..=6 {
            let a = pulse_harmonic_amplitude(k, 0.30);
            let b = pulse_harmonic_amplitude(k, 0.35);
            assert!((a - b).abs() > 1e-4, "harmonic {k} not modulated");
        }
    }

    #[test]
    fn harmonic_window_selection() {
        let w = CaptureWindow::new(Hertz::from_mhz(2.0), 4.0e6, 64, 0.0); // 0..4 MHz
        let ks = harmonics_in_window(Hertz::from_khz(315.0), &w, Hertz::ZERO, 64);
        assert_eq!(ks, (1..=12).collect::<Vec<_>>());
        // Narrow window around the 3rd harmonic only.
        let w2 = CaptureWindow::new(Hertz::from_khz(945.0), 100e3, 64, 0.0);
        assert_eq!(
            harmonics_in_window(Hertz::from_khz(315.0), &w2, Hertz::ZERO, 64),
            vec![3]
        );
        assert!(harmonics_in_window(Hertz::ZERO, &w, Hertz::ZERO, 64).is_empty());
    }

    #[test]
    fn freq_drift_statistics() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut d = FreqDrift::new(100.0, 1e-3);
        let dt = 1e-5;
        let xs: Vec<f64> = (0..200_000).map(|_| d.step(dt, &mut rng)).collect();
        let std = fase_dsp::stats::std_dev(&xs);
        assert!((std - 100.0).abs() < 5.0, "std {std}");
    }

    #[test]
    fn crystal_never_drifts() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut d = FreqDrift::crystal();
        for _ in 0..100 {
            assert_eq!(d.step(1e-6, &mut rng), 0.0);
        }
    }
}
