//! Switching-voltage-regulator sources.
//!
//! §4.1: a buck regulator holds its output voltage by varying the duty
//! cycle of a fixed-frequency switch; more load current ⇒ larger duty
//! cycle. The switch node is a rectangular pulse train, so the emanated
//! spectrum is a harmonic family at the switching frequency, and because
//! *every* harmonic's amplitude is a function of the duty cycle, load
//! changes AM-modulate the whole family. Switching frequencies come from RC
//! oscillators, giving each harmonic a visible line width (Fig. 12).
//!
//! The AMD laptop's core regulator (§4.4) is *constant on-time* instead:
//! it changes its switching **frequency** with load. FASE must reject it —
//! [`FmRegulator`] models that case.

use crate::ctx::{dbm_to_amplitude, CaptureWindow, RenderCtx};
use crate::phasor::{runs_of, Phasor, SynthMode};
use crate::source::{
    harmonics_in_window, pulse_harmonic_amplitude, EmSource, FreqDrift, SourceInfo, SourceKind,
};
use fase_dsp::rng::SmallRng;
use fase_dsp::{Complex64, Hertz};
use fase_sysmodel::Domain;
use std::f64::consts::TAU;

/// Maximum harmonics rendered per regulator (render-cost bound).
const MAX_HARMONICS: u32 = 48;
/// Guard band beyond window edges within which harmonics are still
/// rendered (their side-bands/spread may reach into the span).
const EDGE_GUARD: Hertz = Hertz(60_000.0);

/// A fixed-frequency, duty-cycle-controlled (PWM) switching regulator.
///
/// # Examples
///
/// ```
/// use fase_dsp::Hertz;
/// use fase_emsim::regulator::SwitchingRegulator;
/// use fase_sysmodel::Domain;
/// let reg = SwitchingRegulator::new("DRAM regulator", Hertz::from_khz(315.0), Domain::Dram, 7)
///     .with_fundamental_dbm(-104.0)
///     .with_base_duty(0.12)
///     .with_duty_gain(0.10);
/// assert_eq!(reg.switching_frequency(), Hertz::from_khz(315.0));
/// ```
#[derive(Debug)]
pub struct SwitchingRegulator {
    name: String,
    fsw: Hertz,
    domain: Domain,
    /// Duty cycle at zero load.
    base_duty: f64,
    /// Duty deflection per unit load.
    duty_gain: f64,
    /// Harmonic amplitude scale (set via `with_fundamental_dbm`).
    amp_scale: f64,
    drift: FreqDrift,
    rng: SmallRng,
}

impl SwitchingRegulator {
    /// Creates a regulator switching at `fsw`, powered-domain `domain`,
    /// with deterministic behaviour derived from `seed`.
    pub fn new(name: &str, fsw: Hertz, domain: Domain, seed: u64) -> SwitchingRegulator {
        let mut reg = SwitchingRegulator {
            name: name.to_owned(),
            fsw,
            domain,
            base_duty: 0.10,
            duty_gain: 0.12,
            amp_scale: 1.0,
            // RC oscillator: ~0.1% of fsw line width, millisecond correlation.
            drift: FreqDrift::new(fsw.hz() * 1e-3, 0.5e-3),
            rng: SmallRng::seed_from_u64(seed),
        };
        reg.set_fundamental_dbm(-105.0);
        reg
    }

    /// Sets the received power of the fundamental (at base duty) in dBm.
    pub fn with_fundamental_dbm(mut self, dbm: f64) -> SwitchingRegulator {
        self.set_fundamental_dbm(dbm);
        self
    }

    /// Sets the zero-load duty cycle.
    ///
    /// # Panics
    ///
    /// Panics if `duty` is outside `(0, 1)`.
    pub fn with_base_duty(mut self, duty: f64) -> SwitchingRegulator {
        assert!(duty > 0.0 && duty < 1.0, "duty must be in (0,1)");
        let dbm = self.fundamental_dbm();
        self.base_duty = duty;
        self.set_fundamental_dbm(dbm);
        self
    }

    /// Sets the duty-cycle deflection per unit domain load.
    pub fn with_duty_gain(mut self, gain: f64) -> SwitchingRegulator {
        self.duty_gain = gain;
        self
    }

    /// Sets the oscillator line width (frequency-drift standard deviation).
    pub fn with_linewidth(mut self, sigma: Hertz) -> SwitchingRegulator {
        self.drift = FreqDrift::new(sigma.hz(), 0.5e-3);
        self
    }

    /// The nominal switching frequency.
    pub fn switching_frequency(&self) -> Hertz {
        self.fsw
    }

    /// Received fundamental power at base duty, in dBm.
    pub fn fundamental_dbm(&self) -> f64 {
        let c1 = pulse_harmonic_amplitude(1, self.base_duty);
        20.0 * (self.amp_scale * c1).log10()
    }

    fn set_fundamental_dbm(&mut self, dbm: f64) {
        let c1 = pulse_harmonic_amplitude(1, self.base_duty);
        self.amp_scale = dbm_to_amplitude(dbm) / c1;
    }

    fn duty(&self, load: f64) -> f64 {
        (self.base_duty + self.duty_gain * load).clamp(0.01, 0.95)
    }

    /// Reference path: per-sample trigonometry and per-sample drift.
    fn render_exact(
        &self,
        window: &CaptureWindow,
        load: &[f64],
        ks: &[u32],
        out: &mut [Complex64],
    ) {
        let (mut freq_drift, mut rng) = (self.drift.clone(), self.rng.clone());
        let dt = 1.0 / window.sample_rate();
        let t0 = window.start_time();
        let mut phases: Vec<f64> = ks
            .iter()
            .map(|&k| TAU * ((k as f64 * self.fsw.hz() - window.center().hz()) * t0) % TAU)
            .collect();
        for (n, sample) in out.iter_mut().enumerate().take(window.len()) {
            let drift = freq_drift.step(dt, &mut rng);
            let d = self.duty(load[n]);
            for (i, &k) in ks.iter().enumerate() {
                let amp = self.amp_scale * pulse_harmonic_amplitude(k, d);
                *sample += Complex64::from_polar(amp, phases[i]);
                let inst_freq = k as f64 * (self.fsw.hz() + drift) - window.center().hz();
                phases[i] = (phases[i] + TAU * inst_freq * dt) % TAU;
            }
        }
    }

    /// Fast path: phasor recurrences, with amplitudes recomputed only when
    /// the load value actually changes (the envelope — the signal under
    /// test — stays sample-exact) and drift stepped once per run.
    fn render_fast(&self, window: &CaptureWindow, load: &[f64], ks: &[u32], out: &mut [Complex64]) {
        let (mut freq_drift, mut rng) = (self.drift.clone(), self.rng.clone());
        let dt = 1.0 / window.sample_rate();
        let t0 = window.start_time();
        let fsw = self.fsw.hz();
        let f_off = window.center().hz();
        let mut phasors: Vec<Phasor> = ks
            .iter()
            .map(|&k| Phasor::new(TAU * ((k as f64 * fsw - f_off) * t0) % TAU))
            .collect();
        let mut rots = vec![Complex64::ONE; ks.len()];
        // The load waveform alternates between a handful of levels (two,
        // for an activity-alternation trace), so the per-harmonic comb
        // amplitudes are memoized per distinct level instead of being
        // recomputed at every run boundary.
        let mut amp_sets: Vec<(f64, Vec<f64>)> = Vec::with_capacity(2);
        let Some(&k0) = ks.first() else {
            return;
        };
        for (start, len) in runs_of(window.len(), |a, b| load[a] == load[b]) {
            let drift = freq_drift.step(dt * len as f64, &mut rng);
            let level = load[start];
            let set = match amp_sets.iter().position(|&(l, _)| l == level) {
                Some(i) => i,
                None => {
                    let d = self.duty(level);
                    let amps = ks
                        .iter()
                        .map(|&k| self.amp_scale * pulse_harmonic_amplitude(k, d))
                        .collect();
                    amp_sets.push((level, amps));
                    amp_sets.len() - 1
                }
            };
            // The harmonic indices are contiguous, so one evaluated
            // rotation seeds the whole comb: rot_{k+1} = rot_k · w.
            let w = Phasor::rotation(fsw + drift, dt);
            let mut rot = Phasor::rotation(k0 as f64 * (fsw + drift) - f_off, dt);
            for r in rots.iter_mut() {
                *r = rot;
                rot *= w;
            }
            crate::phasor::mix_tones(
                &mut out[start..start + len],
                &mut phasors,
                &rots,
                &amp_sets[set].1,
            );
        }
    }
}

impl EmSource for SwitchingRegulator {
    fn info(&self) -> SourceInfo {
        SourceInfo {
            name: self.name.clone(),
            kind: SourceKind::SwitchingRegulator,
            fundamental: self.fsw,
            modulated_by: Some(self.domain),
        }
    }

    fn render(&self, window: &CaptureWindow, ctx: &RenderCtx<'_>, out: &mut [Complex64]) {
        let ks = harmonics_in_window(self.fsw, window, EDGE_GUARD, MAX_HARMONICS);
        if ks.is_empty() {
            return;
        }
        let load = ctx.load_waveform(self.domain);
        match ctx.mode() {
            SynthMode::Exact => self.render_exact(window, load, &ks, out),
            SynthMode::Fast => self.render_fast(window, load, &ks, out),
        }
    }
}

/// A constant-on-time regulator: load changes its switching **frequency**
/// (frequency modulation). The paper confirms FASE correctly does *not*
/// report this carrier (§4.4).
#[derive(Debug)]
pub struct FmRegulator {
    name: String,
    fsw: Hertz,
    domain: Domain,
    /// Relative frequency deviation per unit load (e.g. 0.06 = +6% at full
    /// load).
    fm_gain: f64,
    duty: f64,
    amp_scale: f64,
    drift: FreqDrift,
    rng: SmallRng,
}

impl FmRegulator {
    /// Creates a constant-on-time regulator with base switching frequency
    /// `fsw` whose frequency rises by `fm_gain` (relative) at full load.
    pub fn new(name: &str, fsw: Hertz, domain: Domain, seed: u64) -> FmRegulator {
        let duty = 0.25;
        let mut reg = FmRegulator {
            name: name.to_owned(),
            fsw,
            domain,
            fm_gain: 0.06,
            duty,
            amp_scale: 1.0,
            drift: FreqDrift::new(fsw.hz() * 1e-3, 0.5e-3),
            rng: SmallRng::seed_from_u64(seed),
        };
        reg.amp_scale = dbm_to_amplitude(-108.0) / pulse_harmonic_amplitude(1, duty);
        reg
    }

    /// Sets the received fundamental power in dBm.
    pub fn with_fundamental_dbm(mut self, dbm: f64) -> FmRegulator {
        self.amp_scale = dbm_to_amplitude(dbm) / pulse_harmonic_amplitude(1, self.duty);
        self
    }

    /// Sets the relative frequency deviation at full load.
    pub fn with_fm_gain(mut self, gain: f64) -> FmRegulator {
        self.fm_gain = gain;
        self
    }

    /// The zero-load switching frequency.
    pub fn switching_frequency(&self) -> Hertz {
        self.fsw
    }
}

impl EmSource for FmRegulator {
    fn info(&self) -> SourceInfo {
        SourceInfo {
            name: self.name.clone(),
            kind: SourceKind::FmRegulator,
            fundamental: self.fsw,
            modulated_by: Some(self.domain),
        }
    }

    fn render(&self, window: &CaptureWindow, ctx: &RenderCtx<'_>, out: &mut [Complex64]) {
        // Use a generous guard: the carrier wanders by fm_gain·fsw.
        let guard = Hertz(EDGE_GUARD.hz() + self.fm_gain * self.fsw.hz() * (MAX_HARMONICS as f64));
        let ks = harmonics_in_window(self.fsw, window, guard, MAX_HARMONICS);
        if ks.is_empty() {
            return;
        }
        let fs = window.sample_rate();
        let dt = 1.0 / fs;
        let t0 = window.start_time();
        let load = ctx.load_waveform(self.domain);
        let (mut freq_drift, mut rng) = (self.drift.clone(), self.rng.clone());
        let amps: Vec<f64> = ks
            .iter()
            .map(|&k| self.amp_scale * pulse_harmonic_amplitude(k, self.duty))
            .collect();
        let f_off = window.center().hz();
        match ctx.mode() {
            SynthMode::Exact => {
                let mut phases: Vec<f64> = ks
                    .iter()
                    .map(|&k| TAU * ((k as f64 * self.fsw.hz() - f_off) * t0) % TAU)
                    .collect();
                for (n, sample) in out.iter_mut().enumerate().take(window.len()) {
                    let drift = freq_drift.step(dt, &mut rng);
                    // Constant on-time: instantaneous switching frequency
                    // tracks load.
                    let f_inst = self.fsw.hz() * (1.0 + self.fm_gain * load[n]) + drift;
                    for (i, &k) in ks.iter().enumerate() {
                        *sample += Complex64::from_polar(amps[i], phases[i]);
                        let inst = k as f64 * f_inst - f_off;
                        phases[i] = (phases[i] + TAU * inst * dt) % TAU;
                    }
                }
            }
            SynthMode::Fast => {
                // The FM *is* the load waveform: frequency stays sample-
                // exact by breaking runs at every load change, so only the
                // drift noise moves to run rate.
                let mut phasors: Vec<Phasor> = ks
                    .iter()
                    .map(|&k| Phasor::new(TAU * ((k as f64 * self.fsw.hz() - f_off) * t0) % TAU))
                    .collect();
                let mut rots = vec![Complex64::ONE; ks.len()];
                let Some(&k0) = ks.first() else {
                    return;
                };
                for (start, len) in runs_of(window.len(), |a, b| load[a] == load[b]) {
                    let drift = freq_drift.step(dt * len as f64, &mut rng);
                    let f_inst = self.fsw.hz() * (1.0 + self.fm_gain * load[start]) + drift;
                    let w = Phasor::rotation(f_inst, dt);
                    let mut rot = Phasor::rotation(k0 as f64 * f_inst - f_off, dt);
                    for r in rots.iter_mut() {
                        *r = rot;
                        rot *= w;
                    }
                    crate::phasor::mix_tones(
                        &mut out[start..start + len],
                        &mut phasors,
                        &rots,
                        &amps,
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fase_dsp::fft::{fft, fft_shift};
    use fase_dsp::Window as Win;
    use fase_sysmodel::{ActivityTrace, DomainLoads};

    /// Renders a source over a window with the given constant DRAM load and
    /// returns the power spectrum (bin power in mW, DC-centered grid).
    fn spectrum_of(
        source: &dyn EmSource,
        center: Hertz,
        fs: f64,
        n: usize,
        dram_load: f64,
    ) -> Vec<f64> {
        let window = CaptureWindow::new(center, fs, n, 0.0);
        let mut trace = ActivityTrace::new();
        trace.push(
            n as f64 / fs + 1.0,
            DomainLoads::new(0.0, dram_load, dram_load),
        );
        let ctx = RenderCtx::new(&trace, &[], &window);
        let mut iq = vec![Complex64::ZERO; n];
        source.render(&window, &ctx, &mut iq);
        Win::BlackmanHarris.apply_complex(&mut iq);
        let cg = Win::BlackmanHarris.coherent_gain(n);
        let mut bins = fft(&iq);
        fft_shift(&mut bins);
        bins.iter()
            .map(|z| (z.norm() / (n as f64 * cg)).powi(2))
            .collect()
    }

    fn bin_of(freq_offset: f64, fs: f64, n: usize) -> usize {
        ((n / 2) as i64 + (freq_offset / (fs / n as f64)).round() as i64) as usize
    }

    #[test]
    fn regulator_emits_harmonic_family() {
        let reg = SwitchingRegulator::new("test", Hertz::from_khz(315.0), Domain::Dram, 1)
            .with_fundamental_dbm(-100.0)
            .with_linewidth(Hertz(30.0));
        let fs = 4.0e6;
        let n = 1 << 16;
        let spec = spectrum_of(&reg, Hertz::from_mhz(2.0), fs, n, 0.0);
        // Power near each of the first 6 harmonics should clearly exceed the
        // (zero) background.
        for k in 1..=6u32 {
            let f = 315_000.0 * k as f64 - 2.0e6;
            let b = bin_of(f, fs, n);
            let local: f64 = spec[b - 10..b + 10].iter().sum();
            assert!(local > 1e-13, "harmonic {k} missing, power {local}");
        }
    }

    #[test]
    fn fundamental_level_calibration() {
        let reg = SwitchingRegulator::new("cal", Hertz::from_khz(315.0), Domain::Dram, 2)
            .with_fundamental_dbm(-100.0)
            .with_linewidth(Hertz(5.0));
        assert!((reg.fundamental_dbm() - -100.0).abs() < 1e-9);
        let fs = 1.0e6;
        let n = 1 << 16;
        let spec = spectrum_of(&reg, Hertz::from_khz(315.0), fs, n, 0.0);
        // Sum power around the carrier (line width spreads it over bins);
        // for a spread line the bin-power sum overcounts by the window's
        // equivalent noise bandwidth.
        let b = n / 2;
        let total: f64 =
            spec[b - 200..b + 200].iter().sum::<f64>() / Win::BlackmanHarris.enbw_bins(n);
        let dbm = 10.0 * total.log10();
        assert!((dbm - -100.0).abs() < 1.5, "measured {dbm} dBm");
    }

    #[test]
    fn load_changes_harmonic_amplitudes() {
        // Compare the fundamental's power at 0 vs full load: duty rises,
        // so sin(π d) rises (d < 0.5) and the fundamental strengthens.
        let make = || {
            SwitchingRegulator::new("m", Hertz::from_khz(315.0), Domain::Dram, 3)
                .with_base_duty(0.12)
                .with_duty_gain(0.15)
                .with_linewidth(Hertz(5.0))
        };
        let fs = 200e3;
        let n = 1 << 14;
        let spec0 = spectrum_of(&make(), Hertz::from_khz(315.0), fs, n, 0.0);
        let spec1 = spectrum_of(&make(), Hertz::from_khz(315.0), fs, n, 1.0);
        let b = n / 2;
        let p0: f64 = spec0[b - 100..b + 100].iter().sum();
        let p1: f64 = spec1[b - 100..b + 100].iter().sum();
        assert!(
            p1 > 1.5 * p0,
            "expected stronger fundamental under load: {p0} -> {p1}"
        );
    }

    #[test]
    fn no_render_outside_span() {
        let reg = SwitchingRegulator::new("far", Hertz::from_mhz(50.0), Domain::Dram, 4);
        let fs = 1.0e6;
        let n = 1024;
        let spec = spectrum_of(&reg, Hertz::from_khz(500.0), fs, n, 1.0);
        assert!(spec.iter().all(|&p| p == 0.0));
    }

    #[test]
    fn fm_regulator_moves_with_load() {
        // Render at 0 and full load; the carrier peak should shift by
        // fm_gain · fsw.
        let fs = 200e3;
        let n = 1 << 14;
        let fsw = Hertz::from_khz(330.0);
        let make = || {
            FmRegulator::new("fm", fsw, Domain::Core, 5)
                .with_fm_gain(0.05)
                .with_fundamental_dbm(-100.0)
        };
        // Note: spectrum_of drives the mem-if/dram domains; the FM regulator
        // here watches Core, so build custom traces instead.
        let render = |load: f64| -> Vec<f64> {
            let window = CaptureWindow::new(fsw, fs, n, 0.0);
            let mut trace = ActivityTrace::new();
            trace.push(1.0, DomainLoads::new(load, 0.0, 0.0));
            let ctx = RenderCtx::new(&trace, &[], &window);
            let mut iq = vec![Complex64::ZERO; n];
            make().render(&window, &ctx, &mut iq);
            let mut bins = fft(&iq);
            fft_shift(&mut bins);
            bins.iter().map(|z| z.norm_sqr()).collect()
        };
        let idle = render(0.0);
        let busy = render(1.0);
        let peak_idle = fase_dsp::stats::argmax(&idle).unwrap();
        let peak_busy = fase_dsp::stats::argmax(&busy).unwrap();
        let df = (peak_busy as f64 - peak_idle as f64) * fs / n as f64;
        let expected = 0.05 * fsw.hz();
        assert!(
            (df - expected).abs() < 0.1 * expected,
            "FM shift {df} Hz, expected {expected}"
        );
    }

    #[test]
    fn info_reports_ground_truth() {
        let reg =
            SwitchingRegulator::new("DRAM regulator", Hertz::from_khz(315.0), Domain::Dram, 6);
        let info = reg.info();
        assert_eq!(info.kind, SourceKind::SwitchingRegulator);
        assert_eq!(info.fundamental, Hertz::from_khz(315.0));
        assert_eq!(info.modulated_by, Some(Domain::Dram));
        let fm = FmRegulator::new("core", Hertz::from_khz(280.0), Domain::Core, 7);
        assert_eq!(fm.info().kind, SourceKind::FmRegulator);
    }
}
