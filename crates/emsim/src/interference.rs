//! Interference the FASE detector must reject: AM broadcast stations,
//! unmodulated spurs, and broadband rolling noise.
//!
//! The paper's measurements were taken "without shielding in a major
//! metropolitan area with hundreds of radio stations nearby" (§1), and the
//! systems themselves emit thousands of periodic signals that are not
//! modulated by program activity. FASE's claim is that *none* of these are
//! reported; these sources provide the corresponding workload.

use crate::ctx::{dbm_to_amplitude, CaptureWindow, RenderCtx};
use crate::phasor::{Phasor, SynthMode};
use crate::source::{EmSource, FreqDrift, SourceInfo, SourceKind};
use fase_dsp::fft::cached_plan;
use fase_dsp::memo::{memoize, Memo};
use fase_dsp::noise::complex_normal_polar;
use fase_dsp::rng::{Rng, SmallRng};
use fase_dsp::{Complex64, Hertz};
use std::f64::consts::TAU;
use std::sync::Arc;

/// Capture geometry fingerprint: center frequency, sample rate (both by
/// exact bit pattern) and length. Everything a per-geometry cache needs —
/// notably *not* the start time, which neither the spur table nor the
/// noise envelope depends on.
type GeometryKey = (u64, u64, usize);

fn geometry_key(window: &CaptureWindow) -> GeometryKey {
    (
        window.center().hz().to_bits(),
        window.sample_rate().to_bits(),
        window.len(),
    )
}

/// FNV-1a-style fold over 64-bit words, used to fingerprint source
/// content (spur tables, noise envelopes) so renders can be memoized
/// across *instances* (see [`fase_dsp::memo`]).
fn content_fingerprint(words: impl Iterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        h ^= w;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        h ^= h >> 29;
    }
    h
}

/// Time-domain spur blocks keyed by (spur-table fingerprint, capture
/// geometry). The block is a pure deterministic function of the key.
static SPUR_CACHE: Memo<(u64, GeometryKey), Arc<Vec<Complex64>>> = crate::render_memo();

/// (generator start state, (envelope fingerprint, capture geometry)).
type NoiseKey = (u64, (u64, GeometryKey));

/// Rendered noise realizations. Every render starts from the source's
/// seed, so every capture of a campaign replays the same draw and hits.
static NOISE_CACHE: Memo<NoiseKey, Arc<Vec<Complex64>>> = crate::render_memo();
/// Per-bin σ of the rolling-noise frequency-domain draw, keyed by
/// (envelope fingerprint, capture geometry). The envelope is frozen by
/// construction, so evaluating the hills (one `exp` per hill per bin) is
/// paid once per geometry even when the realization itself must be fresh.
static SIGMA_CACHE: Memo<(u64, GeometryKey), Arc<Vec<f64>>> = crate::render_memo();

/// An AM broadcast station: a strong, stable carrier amplitude-modulated by
/// an audio-like program — modulated, but **not** by the victim's program
/// activity, so FASE must reject it.
///
/// # Examples
///
/// ```
/// use fase_dsp::Hertz;
/// use fase_emsim::interference::AmBroadcast;
/// let station = AmBroadcast::new("WSB 750", Hertz::from_khz(750.0), 42)
///     .with_level_dbm(-95.0)
///     .with_modulation_index(0.5);
/// assert_eq!(station.carrier(), Hertz::from_khz(750.0));
/// ```
#[derive(Debug)]
pub struct AmBroadcast {
    name: String,
    carrier: Hertz,
    amplitude: f64,
    modulation_index: f64,
    /// Audio program: a few tones plus low-passed noise.
    tones: Vec<(f64, f64)>, // (frequency Hz, relative level)
    /// Broadband "speech/music" component: an Ornstein–Uhlenbeck process
    /// with an audio-scale correlation time (~1.6 kHz bandwidth).
    audio_noise: FreqDrift,
    drift: FreqDrift,
    rng: SmallRng,
}

impl AmBroadcast {
    /// Creates a station at `carrier` with program content derived from
    /// `seed`.
    pub fn new(name: &str, carrier: Hertz, seed: u64) -> AmBroadcast {
        let mut rng = SmallRng::seed_from_u64(seed);
        let tones = (0..3)
            .map(|_| {
                let f = 300.0 + rng.gen_f64() * 3_700.0;
                let level = 0.3 + rng.gen_f64() * 0.7;
                (f, level)
            })
            .collect();
        AmBroadcast {
            name: name.to_owned(),
            carrier,
            amplitude: dbm_to_amplitude(-95.0),
            modulation_index: 0.7,
            tones,
            audio_noise: FreqDrift::new(1.0, 0.1e-3),
            drift: FreqDrift::new(1.0, 10e-3), // broadcast-grade stability
            rng,
        }
    }

    /// Sets the received carrier power in dBm.
    pub fn with_level_dbm(mut self, dbm: f64) -> AmBroadcast {
        self.amplitude = dbm_to_amplitude(dbm);
        self
    }

    /// Sets the AM modulation index (0..1).
    ///
    /// # Panics
    ///
    /// Panics if the index is outside `[0, 1]`.
    pub fn with_modulation_index(mut self, m: f64) -> AmBroadcast {
        assert!((0.0..=1.0).contains(&m), "modulation index in [0,1]");
        self.modulation_index = m;
        self
    }

    /// Carrier frequency.
    pub fn carrier(&self) -> Hertz {
        self.carrier
    }

    /// The programme at `t`, advancing the render's `audio_noise` by `dt`.
    fn audio(&self, t: f64, dt: f64, audio_noise: &mut FreqDrift, rng: &mut SmallRng) -> f64 {
        let mut a: f64 = self
            .tones
            .iter()
            .map(|&(f, level)| level * (TAU * f * t).sin())
            .sum();
        a = 0.5 * a / self.tones.len() as f64 + 0.5 * audio_noise.step(dt, rng);
        a.clamp(-1.0, 1.0)
    }
}

impl EmSource for AmBroadcast {
    fn info(&self) -> SourceInfo {
        SourceInfo {
            name: self.name.clone(),
            kind: SourceKind::AmBroadcast,
            fundamental: self.carrier,
            modulated_by: None,
        }
    }

    fn render(&self, window: &CaptureWindow, ctx: &RenderCtx<'_>, out: &mut [Complex64]) {
        if !window.contains(self.carrier, Hertz(20_000.0)) {
            return;
        }
        let (mut rng, mut freq_drift, mut audio_noise) = (
            self.rng.clone(),
            self.drift.clone(),
            self.audio_noise.clone(),
        );
        let fs = window.sample_rate();
        let dt = 1.0 / fs;
        let t0 = window.start_time();
        let f_off = window.center().hz();
        match ctx.mode() {
            SynthMode::Exact => {
                let mut phase = TAU * ((self.carrier.hz() - f_off) * t0) % TAU;
                for (n, sample) in out.iter_mut().enumerate().take(window.len()) {
                    let t = t0 + n as f64 * dt;
                    let drift = freq_drift.step(dt, &mut rng);
                    let audio = self.audio(t, dt, &mut audio_noise, &mut rng);
                    let envelope = self.amplitude * (1.0 + self.modulation_index * audio).max(0.0);
                    *sample += Complex64::from_polar(envelope, phase);
                    phase = (phase + TAU * (self.carrier.hz() + drift - f_off) * dt) % TAU;
                }
            }
            SynthMode::Fast => {
                // The audio program reaches ~4 kHz, so size the envelope
                // block to keep ≥8 lerp points per audio cycle; at
                // audio-scale sample rates this degenerates to per-sample
                // evaluation, which is the correct (exact) behaviour.
                // (Renormalization cadence is handled inside the mix
                // kernel, so blocks need no other cap.)
                let block = ((fs / 32_000.0) as usize).max(1);
                let mut phasor = Phasor::new(TAU * ((self.carrier.hz() - f_off) * t0) % TAU);
                let audio = self.audio(t0, dt, &mut audio_noise, &mut rng);
                let mut env_end = self.amplitude * (1.0 + self.modulation_index * audio).max(0.0);
                let n = window.len();
                let mut pos = 0;
                while pos < n {
                    let len = (n - pos).min(block);
                    let dt_block = dt * len as f64;
                    let drift = freq_drift.step(dt_block, &mut rng);
                    let env0 = env_end;
                    let t_end = t0 + (pos + len) as f64 * dt;
                    let audio = self.audio(t_end, dt_block, &mut audio_noise, &mut rng);
                    env_end = self.amplitude * (1.0 + self.modulation_index * audio).max(0.0);
                    let rot = Phasor::rotation(self.carrier.hz() + drift - f_off, dt);
                    let step = (env_end - env0) / len as f64;
                    crate::phasor::mix_tone_ramp(
                        &mut out[pos..pos + len],
                        &mut phasor,
                        rot,
                        env0,
                        step,
                    );
                    pos += len;
                }
            }
        }
    }
}

/// A forest of unmodulated spurs — the "thousands of periodic signals that
/// are not modulated by system activity".
///
/// Rendered in the frequency domain (one inverse FFT per capture
/// geometry) so large populations stay cheap. Spur frequencies are
/// quantized to the capture's bin grid; quantization is identical across
/// the captures of a campaign, which is exactly the stability property
/// that makes FASE reject them.
#[derive(Debug)]
pub struct SpurForest {
    name: String,
    /// `(frequency, envelope amplitude, phase)` per spur.
    spurs: Vec<(Hertz, f64, f64)>,
    /// Content fingerprint of `spurs`, the cache key under which rendered
    /// time-domain blocks are shared. Spur frequencies are quantized to
    /// the bin grid and phases are fixed, so the block is independent of
    /// the capture start time: every capture of a campaign adds the
    /// *same* samples, and the inverse FFT is paid once per geometry —
    /// also across forests built apart with equal spurs.
    fingerprint: u64,
}

fn spur_fingerprint(spurs: &[(Hertz, f64, f64)]) -> u64 {
    content_fingerprint(
        spurs
            .iter()
            .flat_map(|&(f, amp, ph)| [f.hz().to_bits(), amp.to_bits(), ph.to_bits()]),
    )
}

impl SpurForest {
    /// Creates a forest from explicit spurs given as `(frequency, dBm)`.
    pub fn from_spurs(name: &str, spurs: &[(Hertz, f64)], seed: u64) -> SpurForest {
        let mut rng = SmallRng::seed_from_u64(seed);
        let spurs: Vec<(Hertz, f64, f64)> = spurs
            .iter()
            .map(|&(f, dbm)| (f, dbm_to_amplitude(dbm), rng.gen_f64() * TAU))
            .collect();
        SpurForest {
            name: name.to_owned(),
            fingerprint: spur_fingerprint(&spurs),
            spurs,
        }
    }

    /// Generates `count` spurs uniformly placed in `[lo, hi]` with levels
    /// uniform in `[level_lo_dbm, level_hi_dbm]`.
    ///
    /// # Panics
    ///
    /// Panics if the band or level range is inverted.
    pub fn random(
        name: &str,
        lo: Hertz,
        hi: Hertz,
        count: usize,
        level_lo_dbm: f64,
        level_hi_dbm: f64,
        seed: u64,
    ) -> SpurForest {
        assert!(hi.hz() >= lo.hz(), "band must be ordered");
        assert!(level_hi_dbm >= level_lo_dbm, "levels must be ordered");
        let mut rng = SmallRng::seed_from_u64(seed);
        let spurs: Vec<(Hertz, f64, f64)> = (0..count)
            .map(|_| {
                let f = Hertz(lo.hz() + rng.gen_f64() * (hi.hz() - lo.hz()));
                let dbm = level_lo_dbm + rng.gen_f64() * (level_hi_dbm - level_lo_dbm);
                (f, dbm_to_amplitude(dbm), rng.gen_f64() * TAU)
            })
            .collect();
        SpurForest {
            name: name.to_owned(),
            fingerprint: spur_fingerprint(&spurs),
            spurs,
        }
    }

    /// Number of spurs.
    pub fn len(&self) -> usize {
        self.spurs.len()
    }

    /// True if the forest holds no spurs.
    pub fn is_empty(&self) -> bool {
        self.spurs.is_empty()
    }

    /// Spur frequencies (ground truth for rejection tests).
    pub fn frequencies(&self) -> Vec<Hertz> {
        self.spurs.iter().map(|&(f, _, _)| f).collect()
    }
}

impl EmSource for SpurForest {
    fn info(&self) -> SourceInfo {
        SourceInfo {
            name: self.name.clone(),
            kind: SourceKind::Spur,
            fundamental: Hertz::ZERO,
            modulated_by: None,
        }
    }

    fn render(&self, window: &CaptureWindow, _ctx: &RenderCtx<'_>, out: &mut [Complex64]) {
        let key = (self.fingerprint, geometry_key(window));
        let block = memoize(&SPUR_CACHE, key, || {
            Arc::new(render_spur_block(&self.spurs, window))
        });
        for (o, s) in out.iter_mut().zip(block.iter()) {
            *o += *s;
        }
    }
}

/// Renders the forest's time-domain block for one capture geometry — the
/// single inverse FFT a [`SpurForest`] amortizes across a campaign. An
/// empty vector means no spur falls in the band (and caches that outcome).
fn render_spur_block(spurs: &[(Hertz, f64, f64)], window: &CaptureWindow) -> Vec<Complex64> {
    let n = window.len();
    let fs = window.sample_rate();
    let bin_hz = fs / n as f64;
    let mut freq = vec![Complex64::ZERO; n];
    let mut any = false;
    for &(f, amp, phase) in spurs {
        if !window.contains(f, Hertz::ZERO) {
            continue;
        }
        let offset = f.hz() - window.center().hz();
        // Baseband bin index (FFT layout: 0..n/2 positive, n/2..n negative).
        let mut k = (offset / bin_hz).round() as i64;
        if k < 0 {
            k += n as i64;
        }
        let k = (k.rem_euclid(n as i64)) as usize;
        freq[k] += Complex64::from_polar(amp * n as f64, phase);
        any = true;
    }
    if !any {
        return Vec::new();
    }
    cached_plan(n).inverse(&mut freq);
    freq
}

/// One Gaussian "hill" of excess broadband noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseHill {
    /// Center frequency of the hill.
    pub center: Hertz,
    /// Standard-deviation width of the hill.
    pub width: Hertz,
    /// Excess noise density at the hill top, in dB above the floor.
    pub excess_db: f64,
}

/// Broadband noise with a frozen, gently rolling spectral envelope —
/// the paper's "hills and valleys" from randomly timed switching activity.
///
/// The envelope is fixed at construction (it is the same in every capture,
/// so it cannot masquerade as a modulated signal); the noise realization is
/// drawn from the seed, so every render of one source adds the same draw.
#[derive(Debug)]
pub struct RollingNoise {
    name: String,
    /// Noise density far from any hill, in mW/Hz.
    floor_mw_per_hz: f64,
    hills: Vec<NoiseHill>,
    /// Each hill's linear excess factor at its top, `10^(excess_db/10) − 1`,
    /// computed once.
    hill_gains: Vec<f64>,
    rng: SmallRng,
    /// Content fingerprint of the frozen envelope (floor + hills), used
    /// with the generator's start state to memoize whole rendered
    /// realizations.
    fingerprint: u64,
}

impl RollingNoise {
    /// Creates rolling noise with an explicit hill list.
    pub fn new(
        name: &str,
        floor_dbm_per_hz: f64,
        hills: Vec<NoiseHill>,
        seed: u64,
    ) -> RollingNoise {
        let fingerprint = content_fingerprint(std::iter::once(floor_dbm_per_hz.to_bits()).chain(
            hills.iter().flat_map(|h| {
                [
                    h.center.hz().to_bits(),
                    h.width.hz().to_bits(),
                    h.excess_db.to_bits(),
                ]
            }),
        ));
        let hill_gains = hills
            .iter()
            .map(|h| 10f64.powf(h.excess_db / 10.0) - 1.0)
            .collect();
        RollingNoise {
            name: name.to_owned(),
            floor_mw_per_hz: 10f64.powf(floor_dbm_per_hz / 10.0),
            hills,
            hill_gains,
            rng: SmallRng::seed_from_u64(seed),
            fingerprint,
        }
    }

    /// Generates `count` random hills across `[lo, hi]`.
    pub fn random(
        name: &str,
        floor_dbm_per_hz: f64,
        lo: Hertz,
        hi: Hertz,
        count: usize,
        seed: u64,
    ) -> RollingNoise {
        let mut rng = SmallRng::seed_from_u64(seed);
        let hills = (0..count)
            .map(|_| NoiseHill {
                center: Hertz(lo.hz() + rng.gen_f64() * (hi.hz() - lo.hz())),
                width: Hertz((hi.hz() - lo.hz()) * (0.01 + 0.04 * rng.gen_f64())),
                excess_db: 3.0 + 9.0 * rng.gen_f64(),
            })
            .collect();
        RollingNoise::new(name, floor_dbm_per_hz, hills, seed ^ 0x9E37_79B9)
    }

    /// Noise density (mW/Hz) of the envelope at RF frequency `f`.
    pub fn density_at(&self, f: Hertz) -> f64 {
        let excess: f64 = self
            .hills
            .iter()
            .zip(&self.hill_gains)
            .map(|(h, gain)| {
                let z = (f.hz() - h.center.hz()) / h.width.hz();
                gain * (-0.5 * z * z).exp()
            })
            .sum();
        self.floor_mw_per_hz * (1.0 + excess)
    }

    /// Per-bin σ of the frequency-domain draw for `window`'s geometry.
    fn sigmas(&self, window: &CaptureWindow) -> Arc<Vec<f64>> {
        memoize(
            &SIGMA_CACHE,
            (self.fingerprint, geometry_key(window)),
            || {
                let n = window.len();
                let fs = window.sample_rate();
                let bin_hz = fs / n as f64;
                Arc::new(
                    (0..n)
                        .map(|k| {
                            // FFT bin k ↔ baseband offset (k > n/2 means
                            // negative).
                            let offset = if k <= n / 2 {
                                k as f64
                            } else {
                                k as f64 - n as f64
                            } * bin_hz;
                            let f = Hertz(window.center().hz() + offset);
                            // X_k ~ CN(0, density·n·fs) gives PSD = density
                            // after the IFFT.
                            (self.density_at(f) * n as f64 * fs).sqrt()
                        })
                        .collect(),
                )
            },
        )
    }
}

impl EmSource for RollingNoise {
    fn info(&self) -> SourceInfo {
        SourceInfo {
            name: self.name.clone(),
            kind: SourceKind::BroadbandNoise,
            fundamental: Hertz::ZERO,
            modulated_by: None,
        }
    }

    fn render(&self, window: &CaptureWindow, _ctx: &RenderCtx<'_>, out: &mut [Complex64]) {
        let key = (self.rng.state(), (self.fingerprint, geometry_key(window)));
        let block = memoize(&NOISE_CACHE, key, || {
            let mut rng = self.rng.clone();
            let mut freq: Vec<Complex64> = self
                .sigmas(window)
                .iter()
                .map(|&sigma| complex_normal_polar(&mut rng, sigma))
                .collect();
            cached_plan(window.len()).inverse(&mut freq);
            Arc::new(freq)
        });
        for (o, s) in out.iter_mut().zip(block.iter()) {
            *o += *s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fase_dsp::fft::{fft, fft_shift};
    use fase_sysmodel::ActivityTrace;

    fn render(src: &dyn EmSource, center: Hertz, fs: f64, n: usize) -> Vec<Complex64> {
        let window = CaptureWindow::new(center, fs, n, 0.0);
        let trace = ActivityTrace::new();
        let ctx = RenderCtx::new(&trace, &[], &window);
        let mut iq = vec![Complex64::ZERO; n];
        src.render(&window, &ctx, &mut iq);
        iq
    }

    fn power_bins(iq: &[Complex64]) -> Vec<f64> {
        let n = iq.len();
        let mut bins = fft(iq);
        fft_shift(&mut bins);
        bins.iter()
            .map(|z| z.norm_sqr() / (n as f64 * n as f64))
            .collect()
    }

    #[test]
    fn am_station_has_carrier_and_sidebands() {
        let st = AmBroadcast::new("test", Hertz::from_khz(750.0), 1)
            .with_level_dbm(-90.0)
            .with_modulation_index(0.8);
        let fs = 40e3;
        let n = 1 << 14;
        let iq = render(&st, Hertz::from_khz(750.0), fs, n);
        let spec = power_bins(&iq);
        let carrier = spec[n / 2 - 2..n / 2 + 2].iter().sum::<f64>();
        let carrier_dbm = 10.0 * carrier.log10();
        assert!(
            (carrier_dbm - -90.0).abs() < 1.5,
            "carrier {carrier_dbm} dBm"
        );
        // Audio side-bands: power within ±5 kHz (excluding carrier bins)
        // well above power outside ±6 kHz.
        let bin_hz = fs / n as f64;
        let k5 = (5_000.0 / bin_hz) as usize;
        let inner_bins = 2 * (k5 - 3);
        let inner: f64 = spec[n / 2 - k5..n / 2 - 3].iter().sum::<f64>()
            + spec[n / 2 + 3..n / 2 + k5].iter().sum::<f64>();
        let k6 = (6_000.0 / bin_hz) as usize;
        let outer_bins = n - 2 * k6;
        let outer: f64 =
            spec[..n / 2 - k6].iter().sum::<f64>() + spec[n / 2 + k6..].iter().sum::<f64>();
        // Audio-band side-band *density* well above the residual tails of
        // the (Lorentzian) program noise outside it.
        let density_ratio = (inner / inner_bins as f64) / (outer / outer_bins as f64);
        assert!(
            density_ratio > 10.0,
            "side-bands missing: density ratio {density_ratio}"
        );
    }

    #[test]
    fn am_station_outside_span_silent() {
        let st = AmBroadcast::new("far", Hertz::from_mhz(5.0), 2);
        let iq = render(&st, Hertz::from_khz(200.0), 100e3, 1024);
        assert!(iq.iter().all(|z| z.norm() == 0.0));
    }

    #[test]
    fn spur_forest_places_spurs() {
        let spurs = [
            (Hertz::from_khz(100.0), -110.0),
            (Hertz::from_khz(300.0), -100.0),
        ];
        let forest = SpurForest::from_spurs("f", &spurs, 3);
        let fs = 1e6;
        let n = 1 << 14;
        let iq = render(&forest, Hertz::from_khz(500.0), fs, n);
        let spec = power_bins(&iq);
        let bin_hz = fs / n as f64;
        for &(f, dbm) in &spurs {
            let b = (n / 2) as i64 + ((f.hz() - 500e3) / bin_hz).round() as i64;
            let p: f64 = spec[b as usize - 1..=b as usize + 1].iter().sum();
            let measured = 10.0 * p.log10();
            assert!((measured - dbm).abs() < 1.0, "{f}: {measured} vs {dbm}");
        }
    }

    #[test]
    fn spur_amplitudes_stable_across_renders() {
        let forest = SpurForest::random("f", Hertz(0.0), Hertz(1e6), 50, -130.0, -105.0, 7);
        let fs = 1e6;
        let n = 1 << 13;
        let a = power_bins(&render(&forest, Hertz::from_khz(500.0), fs, n));
        let b = power_bins(&render(&forest, Hertz::from_khz(500.0), fs, n));
        for (x, y) in a.iter().zip(&b) {
            assert!(
                (x - y).abs() <= 1e-18 + 1e-9 * x.max(*y),
                "spurs moved between captures"
            );
        }
    }

    #[test]
    fn rolling_noise_follows_envelope() {
        let hills = vec![NoiseHill {
            center: Hertz::from_khz(600.0),
            width: Hertz::from_khz(40.0),
            excess_db: 12.0,
        }];
        let noise = RollingNoise::new("hills", -150.0, hills, 5);
        let fs = 1e6;
        let n = 1 << 15;
        let iq = render(&noise, Hertz::from_khz(500.0), fs, n);
        let spec = power_bins(&iq);
        let bin_hz = fs / n as f64;
        // Average bin power near the hill vs far away: expect ≈ 12 dB.
        let hill_bin = (n / 2) as i64 + ((600e3 - 500e3) / bin_hz).round() as i64;
        let far_bin = (n / 2) as i64 + ((200e3 - 500e3) / bin_hz).round() as i64;
        let avg = |b: i64| -> f64 {
            let b = b as usize;
            spec[b - 100..b + 100].iter().sum::<f64>() / 200.0
        };
        let ratio_db = 10.0 * (avg(hill_bin) / avg(far_bin)).log10();
        assert!((ratio_db - 12.0).abs() < 2.0, "hill excess {ratio_db} dB");
        // Absolute level far from hills ≈ floor density · bin width.
        let expected = 10f64.powf(-150.0 / 10.0) * bin_hz;
        let measured = avg(far_bin);
        let err_db = 10.0 * (measured / expected).log10();
        assert!(err_db.abs() < 1.5, "floor off by {err_db} dB");
    }

    #[test]
    fn noise_realization_follows_the_seed() {
        let draw = |seed| {
            render(
                &RollingNoise::new("n", -150.0, vec![], seed),
                Hertz(0.0),
                1e5,
                1024,
            )
        };
        assert!(draw(6)
            .iter()
            .zip(&draw(7))
            .any(|(x, y)| (*x - *y).norm() > 0.0));
    }
}
