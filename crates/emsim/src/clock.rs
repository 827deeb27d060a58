//! Digital clock sources, including spread-spectrum clocks (§4.3).
//!
//! EMC regulations push vendors to sweep high-frequency clocks (e.g. a
//! 333 MHz DRAM clock swept over 1 MHz every 100 µs) so no single frequency
//! carries all the energy. The emanated *amplitude* still tracks switching
//! activity in the clock's domain — the paper shows the DRAM clock spectrum
//! rising bodily with memory activity (Fig. 14) and FASE detecting the
//! spread carrier as two edge carriers (Fig. 16). CPU clocks, by contrast,
//! were observed spread but *unmodulated*; model that with
//! [`ClockSource::unmodulated`].

use crate::ctx::{dbm_to_amplitude, CaptureWindow, RenderCtx};
use crate::phasor::{Phasor, SynthMode, BLOCK};
use crate::source::{harmonics_in_window, EmSource, FreqDrift, SourceInfo, SourceKind};
use fase_dsp::rng::SmallRng;
use fase_dsp::{Complex64, Hertz};
use fase_sysmodel::Domain;
use std::f64::consts::TAU;

/// Maximum clock harmonics rendered.
const MAX_HARMONICS: u32 = 8;

/// A digital clock: optionally spread-spectrum, optionally
/// amplitude-modulated by a power domain's activity.
///
/// # Examples
///
/// ```
/// use fase_dsp::Hertz;
/// use fase_emsim::clock::ClockSource;
/// use fase_sysmodel::Domain;
/// // The paper's DRAM clock: swept 332–333 MHz over 100 µs, amplitude
/// // tracking DRAM activity.
/// let clk = ClockSource::spread_spectrum(
///     "DRAM clock",
///     Hertz::from_mhz(332.0),
///     Hertz::from_mhz(333.0),
///     100e-6,
///     11,
/// )
/// .modulated_by(Domain::Dram, 0.15)
/// .with_level_dbm(-122.0);
/// assert_eq!(clk.nominal_frequency(), Hertz::from_mhz(332.5));
/// ```
#[derive(Debug)]
pub struct ClockSource {
    name: String,
    /// Sweep lower edge (equals upper edge when not spread).
    f_lo: Hertz,
    /// Sweep upper edge.
    f_hi: Hertz,
    /// Triangular sweep period in seconds.
    sweep_period: f64,
    /// Domain whose load AM-modulates the emanation, if any.
    domain: Option<Domain>,
    /// Emanated amplitude fraction at zero load (1.0 when unmodulated).
    idle_fraction: f64,
    /// Envelope magnitude at full load.
    full_amplitude: f64,
    drift: FreqDrift,
    rng: SmallRng,
}

impl ClockSource {
    /// A crystal-stable, non-spread clock.
    pub fn fixed(name: &str, frequency: Hertz, seed: u64) -> ClockSource {
        ClockSource {
            name: name.to_owned(),
            f_lo: frequency,
            f_hi: frequency,
            sweep_period: 100e-6,
            domain: None,
            idle_fraction: 1.0,
            full_amplitude: dbm_to_amplitude(-125.0),
            drift: FreqDrift::new(frequency.hz() * 2e-8, 10e-3),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// A spread-spectrum clock triangularly swept between `f_lo` and
    /// `f_hi` with the given sweep period.
    ///
    /// # Panics
    ///
    /// Panics if `f_hi < f_lo` or the sweep period is not positive.
    pub fn spread_spectrum(
        name: &str,
        f_lo: Hertz,
        f_hi: Hertz,
        sweep_period: f64,
        seed: u64,
    ) -> ClockSource {
        assert!(f_hi.hz() >= f_lo.hz(), "sweep range must be ordered");
        assert!(sweep_period > 0.0, "sweep period must be positive");
        ClockSource {
            name: name.to_owned(),
            f_lo,
            f_hi,
            sweep_period,
            domain: None,
            idle_fraction: 1.0,
            full_amplitude: dbm_to_amplitude(-125.0),
            drift: FreqDrift::new(f_lo.hz() * 2e-8, 10e-3),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Makes the emanated amplitude track `domain` load:
    /// envelope = full · (idle_fraction + (1 − idle_fraction)·load).
    pub fn modulated_by(mut self, domain: Domain, idle_fraction: f64) -> ClockSource {
        assert!(
            (0.0..=1.0).contains(&idle_fraction),
            "idle fraction in [0,1]"
        );
        self.domain = Some(domain);
        self.idle_fraction = idle_fraction;
        self
    }

    /// Explicitly marks the clock unmodulated (the CPU-clock case).
    pub fn unmodulated(mut self) -> ClockSource {
        self.domain = None;
        self.idle_fraction = 1.0;
        self
    }

    /// Sets the received power at full activity, in dBm.
    pub fn with_level_dbm(mut self, dbm: f64) -> ClockSource {
        self.full_amplitude = dbm_to_amplitude(dbm);
        self
    }

    /// Center of the sweep range.
    pub fn nominal_frequency(&self) -> Hertz {
        Hertz((self.f_lo.hz() + self.f_hi.hz()) / 2.0)
    }

    /// Peak-to-peak sweep span (zero for a fixed clock).
    pub fn sweep_span(&self) -> Hertz {
        self.f_hi - self.f_lo
    }

    /// Triangular sweep deviation from the nominal center at time `t`,
    /// in Hz (zero-mean, spans ±span/2).
    fn sweep_deviation(&self, t: f64) -> f64 {
        let span = self.sweep_span().hz();
        if span == 0.0 {
            return 0.0;
        }
        let phase = (t / self.sweep_period).rem_euclid(1.0);
        let tri = if phase < 0.5 {
            2.0 * phase
        } else {
            2.0 * (1.0 - phase)
        };
        span * (tri - 0.5)
    }
}

impl EmSource for ClockSource {
    fn info(&self) -> SourceInfo {
        SourceInfo {
            name: self.name.clone(),
            kind: SourceKind::Clock,
            fundamental: self.nominal_frequency(),
            modulated_by: self.domain,
        }
    }

    fn render(&self, window: &CaptureWindow, ctx: &RenderCtx<'_>, out: &mut [Complex64]) {
        let guard = Hertz(self.sweep_span().hz() * MAX_HARMONICS as f64 + 50_000.0);
        let ks = harmonics_in_window(self.nominal_frequency(), window, guard, MAX_HARMONICS);
        if ks.is_empty() {
            return;
        }
        let fs = window.sample_rate();
        let dt = 1.0 / fs;
        let t0 = window.start_time();
        let f_nom = self.nominal_frequency().hz();
        let f_off = window.center().hz();
        let load = self.domain.map(|d| ctx.load_waveform(d));
        let (mut freq_drift, mut rng) = (self.drift.clone(), self.rng.clone());
        // Harmonic amplitude rolloff ~1/k (fast digital edges).
        let amps: Vec<f64> = ks.iter().map(|&k| self.full_amplitude / k as f64).collect();
        match ctx.mode() {
            SynthMode::Exact => {
                let mut phases: Vec<f64> = ks
                    .iter()
                    .map(|&k| TAU * ((k as f64 * f_nom - f_off) * t0) % TAU)
                    .collect();
                for (n, sample) in out.iter_mut().enumerate().take(window.len()) {
                    let t = t0 + n as f64 * dt;
                    let drift = freq_drift.step(dt, &mut rng);
                    let dev = self.sweep_deviation(t);
                    let envelope = match load {
                        Some(w) => self.idle_fraction + (1.0 - self.idle_fraction) * w[n],
                        None => 1.0,
                    };
                    for (i, &k) in ks.iter().enumerate() {
                        *sample += Complex64::from_polar(amps[i] * envelope, phases[i]);
                        let inst = k as f64 * (f_nom + dev + drift) - f_off;
                        phases[i] = (phases[i] + TAU * inst * dt) % TAU;
                    }
                }
            }
            SynthMode::Fast => {
                // The triangular sweep is piecewise-linear in frequency, so
                // a per-block linear chirp (second-order phasor recurrence)
                // reproduces it exactly except across the two vertices per
                // sweep period; the load envelope stays per-sample — it is
                // the amplitude modulation FASE detects.
                let mut phasors: Vec<Phasor> = ks
                    .iter()
                    .map(|&k| Phasor::new(TAU * ((k as f64 * f_nom - f_off) * t0) % TAU))
                    .collect();
                let mut rots = vec![Complex64::ONE; ks.len()];
                let mut accels = vec![Complex64::ONE; ks.len()];
                let mut env = [0.0f64; BLOCK];
                let n = window.len();
                let mut pos = 0;
                while pos < n {
                    let len = (n - pos).min(BLOCK);
                    let drift = freq_drift.step(dt * len as f64, &mut rng);
                    let dev0 = self.sweep_deviation(t0 + pos as f64 * dt);
                    let dev1 = self.sweep_deviation(t0 + (pos + len) as f64 * dt);
                    for (i, &k) in ks.iter().enumerate() {
                        let f0 = k as f64 * (f_nom + dev0 + drift) - f_off;
                        let f1 = k as f64 * (f_nom + dev1 + drift) - f_off;
                        rots[i] = Phasor::rotation(f0, dt);
                        accels[i] = Phasor::chirp(f0, f1, len, dt);
                    }
                    // Materialize the block's envelope once, then let each
                    // harmonic run the batched chirp kernel over it.
                    match load {
                        Some(w) => {
                            for (e, &l) in env[..len].iter_mut().zip(&w[pos..pos + len]) {
                                *e = self.idle_fraction + (1.0 - self.idle_fraction) * l;
                            }
                        }
                        None => env[..len].fill(1.0),
                    }
                    let block = &mut out[pos..pos + len];
                    for (i, p) in phasors.iter_mut().enumerate() {
                        crate::phasor::mix_chirp_env(
                            block,
                            &env[..len],
                            p,
                            &mut rots[i],
                            accels[i],
                            amps[i],
                        );
                    }
                    pos += len;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fase_dsp::fft::{fft, fft_shift};
    use fase_sysmodel::{ActivityTrace, DomainLoads};

    fn render_spectrum(clk: &ClockSource, center: Hertz, fs: f64, n: usize, dram: f64) -> Vec<f64> {
        let window = CaptureWindow::new(center, fs, n, 0.0);
        let mut trace = ActivityTrace::new();
        trace.push(10.0, DomainLoads::new(0.0, dram, dram));
        let ctx = RenderCtx::new(&trace, &[], &window);
        let mut iq = vec![Complex64::ZERO; n];
        clk.render(&window, &ctx, &mut iq);
        let mut bins = fft(&iq);
        fft_shift(&mut bins);
        bins.iter()
            .map(|z| z.norm_sqr() / (n as f64 * n as f64))
            .collect()
    }

    #[test]
    fn sweep_deviation_is_triangular() {
        let clk = ClockSource::spread_spectrum(
            "c",
            Hertz::from_mhz(332.0),
            Hertz::from_mhz(333.0),
            100e-6,
            1,
        );
        assert!((clk.sweep_deviation(0.0) - -500e3).abs() < 1.0);
        assert!((clk.sweep_deviation(25e-6) - 0.0).abs() < 1.0);
        assert!((clk.sweep_deviation(50e-6) - 500e3).abs() < 1.0);
        assert!((clk.sweep_deviation(75e-6) - 0.0).abs() < 1.0);
        assert!((clk.sweep_deviation(100e-6) - -500e3).abs() < 1.0);
    }

    #[test]
    fn fixed_clock_is_narrow() {
        let clk = ClockSource::fixed("c", Hertz::from_mhz(10.0), 2).with_level_dbm(-100.0);
        let fs = 100e3;
        let n = 1 << 13;
        let spec = render_spectrum(&clk, Hertz::from_mhz(10.0), fs, n, 0.0);
        let peak = fase_dsp::stats::argmax(&spec).unwrap();
        // Peak at DC offset (center tuned to the clock).
        assert!((peak as i64 - (n / 2) as i64).abs() <= 2);
        // Energy concentrated: top bins hold almost everything.
        let total: f64 = spec.iter().sum();
        let top: f64 = spec[n / 2 - 4..n / 2 + 4].iter().sum();
        assert!(top / total > 0.9);
    }

    #[test]
    fn spread_clock_occupies_sweep_band() {
        let clk = ClockSource::spread_spectrum(
            "ssc",
            Hertz::from_mhz(332.0),
            Hertz::from_mhz(333.0),
            100e-6,
            3,
        )
        .with_level_dbm(-100.0);
        let fs = 4e6;
        let n = 1 << 15; // ~8 ms: many sweep periods
        let spec = render_spectrum(&clk, Hertz::from_mhz(332.5), fs, n, 0.0);
        let bin_hz = fs / n as f64;
        let lo_bin = (n / 2) - (600e3 / bin_hz) as usize;
        let hi_bin = (n / 2) + (600e3 / bin_hz) as usize;
        let inside: f64 = spec[lo_bin..hi_bin].iter().sum();
        let total: f64 = spec.iter().sum();
        assert!(inside / total > 0.95, "sweep energy escaped band");
        // And it is genuinely spread: the strongest single bin is far below
        // the total.
        let peak = spec.iter().cloned().fold(0.0, f64::max);
        assert!(
            peak / total < 0.3,
            "not spread: peak fraction {}",
            peak / total
        );
    }

    #[test]
    fn modulated_clock_tracks_load() {
        let make = |seed| {
            ClockSource::spread_spectrum(
                "dram",
                Hertz::from_mhz(332.0),
                Hertz::from_mhz(333.0),
                100e-6,
                seed,
            )
            .modulated_by(Domain::Dram, 0.1)
            .with_level_dbm(-110.0)
        };
        let fs = 4e6;
        let n = 1 << 14;
        let idle: f64 = render_spectrum(&make(4), Hertz::from_mhz(332.5), fs, n, 0.0)
            .iter()
            .sum();
        let busy: f64 = render_spectrum(&make(4), Hertz::from_mhz(332.5), fs, n, 1.0)
            .iter()
            .sum();
        // Amplitude ratio 10x => power ratio 100x.
        assert!(
            busy / idle > 50.0,
            "modulation depth wrong: {}",
            busy / idle
        );
    }

    #[test]
    fn unmodulated_clock_ignores_load() {
        let make = || ClockSource::fixed("cpu", Hertz::from_mhz(5.0), 5).unmodulated();
        let fs = 100e3;
        let n = 1 << 12;
        let idle: f64 = render_spectrum(&make(), Hertz::from_mhz(5.0), fs, n, 0.0)
            .iter()
            .sum();
        let busy: f64 = render_spectrum(&make(), Hertz::from_mhz(5.0), fs, n, 1.0)
            .iter()
            .sum();
        assert!((busy / idle - 1.0).abs() < 0.05);
    }

    #[test]
    fn info_ground_truth() {
        let clk = ClockSource::spread_spectrum(
            "DRAM clock",
            Hertz::from_mhz(332.0),
            Hertz::from_mhz(333.0),
            100e-6,
            6,
        )
        .modulated_by(Domain::Dram, 0.15);
        let info = clk.info();
        assert_eq!(info.kind, SourceKind::Clock);
        assert_eq!(info.fundamental, Hertz::from_mhz(332.5));
        assert_eq!(info.modulated_by, Some(Domain::Dram));
    }
}
