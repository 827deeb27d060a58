//! The propagation channel and receiver front-end.
//!
//! Stands in for the paper's 30 cm air gap, AOR LA400 magnetic loop antenna
//! and the Agilent MXA's front-end: a flat gain (sources specify their
//! levels *as received*, so the default gain is 0 dB) plus additive thermal
//! noise at a configurable density.

use crate::ctx::CaptureWindow;
use fase_dsp::memo::{memoize, Memo};
use fase_dsp::noise::complex_normal_polar;
use fase_dsp::rng::SmallRng;
use fase_dsp::{Complex64, Decibels};
use std::sync::Arc;

/// (generator start state, (σ bits, capture length)).
type RxNoiseKey = (u64, (u64, usize));

/// Receiver-noise realizations. Every render of a channel starts from its
/// seed, so every capture of a campaign replays the same draw and hits.
static RX_NOISE_CACHE: Memo<RxNoiseKey, Arc<Vec<Complex64>>> = crate::render_memo();

/// Receiver channel model.
///
/// # Examples
///
/// ```
/// use fase_emsim::channel::Channel;
/// let ch = Channel::new(-172.0, 1).with_gain_db(-6.0);
/// assert_eq!(ch.gain().db(), -6.0);
/// ```
#[derive(Debug)]
pub struct Channel {
    gain: Decibels,
    /// Receiver noise density in dBm/Hz.
    noise_density_dbm_per_hz: f64,
    rng: SmallRng,
}

impl Channel {
    /// Creates a channel with the given receiver noise density (dBm/Hz).
    pub fn new(noise_density_dbm_per_hz: f64, seed: u64) -> Channel {
        Channel {
            gain: Decibels::ZERO,
            noise_density_dbm_per_hz,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// A quiet laboratory receiver: −172 dBm/Hz effective noise density.
    pub fn quiet(seed: u64) -> Channel {
        Channel::new(-172.0, seed)
    }

    /// Sets a flat gain (e.g. extra distance attenuation) in dB.
    pub fn with_gain_db(mut self, gain_db: f64) -> Channel {
        self.gain = Decibels(gain_db);
        self
    }

    /// The flat channel gain.
    pub fn gain(&self) -> Decibels {
        self.gain
    }

    /// Receiver noise density in dBm/Hz.
    pub fn noise_density(&self) -> f64 {
        self.noise_density_dbm_per_hz
    }

    /// Applies the channel to a rendered baseband buffer in place:
    /// scales by the gain and adds receiver noise appropriate for the
    /// capture's bandwidth. The noise is drawn from the channel's seed,
    /// so equal windows receive equal noise.
    pub fn apply(&self, window: &CaptureWindow, iq: &mut [Complex64]) {
        let g = 10f64.powf(self.gain.db() / 20.0);
        // Total noise power across the span: density · fs (mW); per complex
        // sample the variance equals that power.
        let density_mw = 10f64.powf(self.noise_density_dbm_per_hz / 10.0);
        let sigma = (density_mw * window.sample_rate()).sqrt();
        let key = (self.rng.state(), (sigma.to_bits(), iq.len()));
        let noise = memoize(&RX_NOISE_CACHE, key, || {
            let mut rng = self.rng.clone();
            Arc::new(
                iq.iter()
                    .map(|_| complex_normal_polar(&mut rng, sigma))
                    .collect(),
            )
        });
        for (z, nz) in iq.iter_mut().zip(noise.iter()) {
            *z = z.scale(g) + *nz;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fase_dsp::fft::fft;
    use fase_dsp::Hertz;

    #[test]
    fn noise_floor_density_is_calibrated() {
        let ch = Channel::new(-150.0, 1);
        let fs = 1e6;
        let n = 1 << 15;
        let window = CaptureWindow::new(Hertz(0.0), fs, n, 0.0);
        let mut iq = vec![Complex64::ZERO; n];
        ch.apply(&window, &mut iq);
        // Average bin power (rectangular window) = density · bin_hz.
        let bins = fft(&iq);
        let avg: f64 = bins
            .iter()
            .map(|z| z.norm_sqr() / (n as f64 * n as f64))
            .sum::<f64>()
            / n as f64;
        let bin_hz = fs / n as f64;
        let expected = 10f64.powf(-150.0 / 10.0) * bin_hz;
        let err_db = 10.0 * (avg / expected).log10();
        assert!(err_db.abs() < 0.5, "noise floor off by {err_db} dB");
    }

    #[test]
    fn same_seed_same_noise() {
        let window = CaptureWindow::new(Hertz(0.0), 1e6, 256, 0.0);
        let run = |seed| {
            let ch = Channel::new(-150.0, seed);
            let mut iq = vec![Complex64::ZERO; 256];
            ch.apply(&window, &mut iq);
            iq
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn gain_scales_signal() {
        let ch = Channel::new(-300.0, 2).with_gain_db(-20.0); // noiseless
        let window = CaptureWindow::new(Hertz(0.0), 1e6, 64, 0.0);
        let mut iq = vec![Complex64::ONE; 64];
        ch.apply(&window, &mut iq);
        for z in &iq {
            assert!((z.re - 0.1).abs() < 1e-9);
        }
    }
}
