//! The memory-refresh emanation source (§4.2).
//!
//! Each refresh command drives a short (~200 ns) burst of current through
//! the DIMMs, emanating a pulse. The pulse *times* come from the memory
//! controller model (`fase-sysmodel`), so postponement under load — the
//! physical cause of the paper's "signal weakens as memory activity
//! increases" observation — propagates mechanically into the spectrum.
//!
//! Rendering downconverts each pulse to a complex baseband impulse and
//! places it with a band-limited (Lanczos-windowed sinc) kernel — an ideal
//! anti-alias front-end, so the train's harmonics beyond the captured span
//! do not fold back in.

use crate::ctx::{dbm_to_amplitude, CaptureWindow, RenderCtx};
use crate::source::{EmSource, SourceInfo, SourceKind};
use fase_dsp::{Complex64, Hertz};
use fase_sysmodel::Domain;
use std::f64::consts::{PI, TAU};

/// EM source fed by the controller's refresh command timeline.
///
/// # Examples
///
/// ```
/// use fase_dsp::Hertz;
/// use fase_emsim::refresh::RefreshSource;
/// let src = RefreshSource::new("memory refresh", Hertz(128_000.0), 200e-9)
///     .with_harmonic_dbm(-132.0);
/// assert_eq!(src.nominal_rate(), Hertz(128_000.0));
/// ```
#[derive(Debug, Clone)]
pub struct RefreshSource {
    name: String,
    nominal_rate: Hertz,
    pulse_width: f64,
    /// Envelope amplitude of a pulse while active.
    pulse_amplitude: f64,
}

impl RefreshSource {
    /// Creates a refresh source with the given nominal command rate and
    /// pulse width in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `pulse_width` is not positive.
    pub fn new(name: &str, nominal_rate: Hertz, pulse_width: f64) -> RefreshSource {
        assert!(pulse_width > 0.0, "pulse width must be positive");
        let mut src = RefreshSource {
            name: name.to_owned(),
            nominal_rate,
            pulse_width,
            pulse_amplitude: 1.0,
        };
        src.set_harmonic_dbm(-132.0);
        src
    }

    /// Sets the received power of the low-order harmonics (for an idle,
    /// perfectly periodic train) in dBm.
    pub fn with_harmonic_dbm(mut self, dbm: f64) -> RefreshSource {
        self.set_harmonic_dbm(dbm);
        self
    }

    fn set_harmonic_dbm(&mut self, dbm: f64) {
        // A real pulse train of amplitude A and duty d has two-sided Fourier
        // coefficients |X_k| = A·d·sinc(πkd); after downconversion the
        // complex-envelope amplitude of harmonic k is therefore ≈ A·d for
        // small duty. (The sampler's boxcar integration adds up to a few dB
        // of rolloff towards the span edges, as in a real SDR front-end.)
        let duty = self.pulse_width * self.nominal_rate.hz();
        self.pulse_amplitude = dbm_to_amplitude(dbm) / duty;
    }

    /// Nominal refresh rate (1/tREFI).
    pub fn nominal_rate(&self) -> Hertz {
        self.nominal_rate
    }
}

impl EmSource for RefreshSource {
    fn info(&self) -> SourceInfo {
        SourceInfo {
            name: self.name.clone(),
            kind: SourceKind::MemoryRefresh,
            fundamental: self.nominal_rate,
            modulated_by: Some(Domain::Dram),
        }
    }

    fn render(&self, window: &CaptureWindow, ctx: &RenderCtx<'_>, out: &mut [Complex64]) {
        let fs = window.sample_rate();
        let ts = 1.0 / fs;
        let f0 = window.center().hz();
        let n = window.len();
        let duration = n as f64 * ts;

        for event in ctx.refreshes() {
            // Event times are relative to the window start.
            if event.end() <= 0.0 || event.start >= duration {
                continue;
            }
            // The pulse is far shorter than a sample period; downconverted
            // to baseband it is a complex impulse of area
            // A·w·sinc(πf₀w)·e^{-j2πf₀τ} (τ = pulse center). Place it with a
            // band-limited (Lanczos-windowed sinc) kernel: an ideal
            // anti-alias front-end, so harmonics beyond the span do not
            // fold back in.
            let tau = event.start + 0.5 * event.duration;
            let area = self.pulse_amplitude * event.duration * sinc(PI * f0 * event.duration);
            let rotation = Complex64::cis(-TAU * f0 * (window.start_time() + tau));
            let amp = rotation * (area / ts);
            let center = tau / ts;
            let lo = ((center - LANCZOS_A).ceil().max(0.0)) as usize;
            let hi = ((center + LANCZOS_A).floor().min((n - 1) as f64)) as usize;
            add_lanczos_pulse(&mut out[lo..=hi], lo as f64 - center, amp);
        }
    }
}

/// Adds `amp · lanczos(x0 + k)` for consecutive samples, evaluating the
/// kernel by recurrence instead of two `sin` calls per sample:
/// `sin(π(x0+k)) = (−1)ᵏ·sin(πx0)`, and the slow `sin(πx/a)` factor is a
/// fixed rotation by π/a per step. Hundreds of refresh events hit every
/// campaign capture, each spanning 2·[`LANCZOS_A`] samples.
fn add_lanczos_pulse(out: &mut [Complex64], x0: f64, amp: Complex64) {
    let mut x = x0;
    let mut s1 = (PI * x0).sin();
    let (mut s2, mut c2) = (PI * x0 / LANCZOS_A).sin_cos();
    let (sa, ca) = (PI / LANCZOS_A).sin_cos();
    for sample in out.iter_mut() {
        // Near the pulse center both sines vanish linearly; the closed form
        // is the same 1.0 the direct `lanczos` evaluates to. Outside the
        // kernel support the window factor is zero.
        let k = if x.abs() < 1e-9 {
            1.0
        } else if x.abs() >= LANCZOS_A {
            0.0
        } else {
            s1 * s2 * LANCZOS_A / (PI * PI * x * x)
        };
        *sample += amp * k;
        x += 1.0;
        s1 = -s1;
        let next_s2 = s2 * ca + c2 * sa;
        c2 = c2 * ca - s2 * sa;
        s2 = next_s2;
    }
}

/// Lanczos kernel half-width in samples.
const LANCZOS_A: f64 = 8.0;

fn sinc(x: f64) -> f64 {
    if x.abs() < 1e-12 {
        1.0
    } else {
        x.sin() / x
    }
}

/// Lanczos-windowed sinc interpolation kernel (a = [`LANCZOS_A`]) — the
/// direct evaluation [`add_lanczos_pulse`]'s recurrence is checked against.
#[cfg(test)]
fn lanczos(x: f64) -> f64 {
    if x.abs() >= LANCZOS_A {
        0.0
    } else {
        sinc(PI * x) * sinc(PI * x / LANCZOS_A)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fase_dsp::Spectrum;
    use fase_sysmodel::{ActivityTrace, RefreshEvent};

    fn periodic_events(rate: f64, width: f64, duration: f64) -> Vec<RefreshEvent> {
        let n = (duration * rate) as usize;
        (0..n)
            .map(|i| RefreshEvent {
                start: i as f64 / rate,
                duration: width,
            })
            .collect()
    }

    fn power_spectrum(
        src: &mut RefreshSource,
        events: &[RefreshEvent],
        center: Hertz,
        fs: f64,
        n: usize,
    ) -> Vec<f64> {
        let window = CaptureWindow::new(center, fs, n, 0.0);
        let trace = ActivityTrace::new();
        let ctx = RenderCtx::new(&trace, events, &window);
        let mut iq = vec![Complex64::ZERO; n];
        src.render(&window, &ctx, &mut iq);
        Spectrum::from_capture(center, fs, &iq)
            .unwrap()
            .powers()
            .to_vec()
    }

    fn band_power(spec: &[f64], fs: f64, n: usize, f_offset: f64, half_bins: usize) -> f64 {
        let b = (n / 2) as i64 + (f_offset / (fs / n as f64)).round() as i64;
        let b = b as usize;
        spec[b - half_bins..=b + half_bins].iter().sum()
    }

    #[test]
    fn periodic_train_has_flat_harmonic_comb() {
        let mut src =
            RefreshSource::new("refresh", Hertz(128_000.0), 200e-9).with_harmonic_dbm(-120.0);
        let fs = 4.0e6;
        let n = 1 << 16;
        let events = periodic_events(128_000.0, 200e-9, n as f64 / fs);
        let spec = power_spectrum(&mut src, &events, Hertz::from_mhz(2.0), fs, n);
        // Harmonics at 128 kHz spacing: check k = 4 (512 kHz) and k = 8
        // (1024 kHz) — the ones Figure 11 plots — are present and similar.
        let p4 = band_power(&spec, fs, n, 512_000.0 - 2.0e6, 3);
        let p8 = band_power(&spec, fs, n, 1_024_000.0 - 2.0e6, 3);
        let p4_dbm = 10.0 * p4.log10();
        let p8_dbm = 10.0 * p8.log10();
        // Within a few dB of the calibration target (sampler boxcar rolloff
        // legitimately costs up to ~2 dB at this span offset) ...
        assert!((p4_dbm - -120.0).abs() < 4.0, "4th harmonic {p4_dbm} dBm");
        // ... and "of similar strength" across harmonics (§4.2).
        assert!(
            (p8_dbm - p4_dbm).abs() < 3.0,
            "harmonics differ: {p4_dbm} vs {p8_dbm}"
        );
        // Between harmonics: essentially nothing.
        let gap = band_power(&spec, fs, n, 576_000.0 - 2.0e6, 3);
        assert!(gap < p4 * 1e-4, "gap power too high");
    }

    #[test]
    fn jittered_train_weakens_harmonics() {
        // The §4.2 mechanism: random postponement spreads energy, weakening
        // the narrowband harmonics.
        use fase_dsp::rng::Rng;
        let mut rng = fase_dsp::rng::SmallRng::seed_from_u64(8);
        let fs = 4.0e6;
        let n = 1 << 16;
        let duration = n as f64 / fs;
        let t_refi = 1.0 / 128_000.0;
        let clean = periodic_events(128_000.0, 200e-9, duration);
        let jittered: Vec<RefreshEvent> = clean
            .iter()
            .map(|e| RefreshEvent {
                start: e.start + rng.gen_f64() * 2.0 * t_refi,
                duration: e.duration,
            })
            .collect();
        let mut src = RefreshSource::new("refresh", Hertz(128_000.0), 200e-9);
        let spec_clean = power_spectrum(&mut src.clone(), &clean, Hertz::from_mhz(2.0), fs, n);
        let spec_jit = power_spectrum(&mut src, &jittered, Hertz::from_mhz(2.0), fs, n);
        let h_clean = band_power(&spec_clean, fs, n, 512_000.0 - 2.0e6, 3);
        let h_jit = band_power(&spec_jit, fs, n, 512_000.0 - 2.0e6, 3);
        assert!(
            h_jit < 0.25 * h_clean,
            "jitter should weaken the harmonic: {h_clean} -> {h_jit}"
        );
    }

    #[test]
    fn no_events_no_signal() {
        let src = RefreshSource::new("refresh", Hertz(128_000.0), 200e-9);
        let window = CaptureWindow::new(Hertz::from_mhz(1.0), 1e6, 1024, 0.0);
        let trace = ActivityTrace::new();
        let ctx = RenderCtx::new(&trace, &[], &window);
        let mut iq = vec![Complex64::ZERO; 1024];
        src.render(&window, &ctx, &mut iq);
        assert!(iq.iter().all(|z| z.norm() == 0.0));
    }

    #[test]
    fn events_outside_window_ignored() {
        let src = RefreshSource::new("refresh", Hertz(128_000.0), 200e-9);
        let window = CaptureWindow::new(Hertz::from_mhz(1.0), 1e6, 1024, 0.0);
        let trace = ActivityTrace::new();
        let far = [RefreshEvent {
            start: 100.0,
            duration: 200e-9,
        }];
        let ctx = RenderCtx::new(&trace, &far, &window);
        let mut iq = vec![Complex64::ZERO; 1024];
        src.render(&window, &ctx, &mut iq);
        assert!(iq.iter().all(|z| z.norm() == 0.0));
    }

    #[test]
    fn recurrence_matches_direct_lanczos() {
        for &x0 in &[-7.73, -3.2, -0.5, -1e-12, 0.31] {
            let amp = Complex64::new(0.6, -1.3);
            let n = 16;
            let mut fast = vec![Complex64::ZERO; n];
            add_lanczos_pulse(&mut fast, x0, amp);
            for (k, got) in fast.iter().enumerate() {
                let want = amp * lanczos(x0 + k as f64);
                assert!(
                    (*got - want).norm() < 1e-12,
                    "x0={x0} k={k}: {got} vs {want}"
                );
            }
        }
    }
}
