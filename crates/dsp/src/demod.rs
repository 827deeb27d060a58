//! Demodulation primitives.
//!
//! FASE finds the carriers; an attacker then *demodulates* them to read
//! the activity signal (§4.1: "the equivalent of power side-channel
//! attacks from a distance", §4.3: "attackers can still track the carrier
//! and use the full power of the signal after demodulation"). The paper's
//! authors also used demodulation defensively: the AMD regulator was shown
//! to be frequency-modulated "with a spectrogram of the modulation"
//! (§4.4). This module provides both demodulators plus the spectrogram.

use crate::complex::Complex64;
use crate::stats::safe_sqrt;
use crate::window::hann;

/// AM (envelope) demodulation: the magnitude of the complex baseband
/// signal, optionally smoothed by a moving average of `smooth` samples.
///
/// # Examples
///
/// ```
/// use fase_dsp::demod::envelope;
/// use fase_dsp::Complex64;
/// let iq: Vec<Complex64> = (0..100)
///     .map(|n| Complex64::from_polar(2.0, 0.3 * n as f64))
///     .collect();
/// let e = envelope(&iq, 1);
/// assert!(e.iter().all(|&x| (x - 2.0).abs() < 1e-12));
/// ```
pub fn envelope(iq: &[Complex64], smooth: usize) -> Vec<f64> {
    let raw: Vec<f64> = iq.iter().map(|z| z.norm()).collect();
    moving_average(&raw, smooth)
}

/// FM demodulation: instantaneous frequency in Hz from sample-to-sample
/// phase rotation. The first output sample duplicates the second (there is
/// no prior sample to difference against).
///
/// Phase differences are taken as the argument of `z[n]·conj(z[n−1])`,
/// which is intrinsically unwrapped for per-sample rotations below π.
///
/// # Examples
///
/// ```
/// use fase_dsp::demod::instantaneous_frequency;
/// use fase_dsp::Complex64;
/// let fs = 10_000.0;
/// let f = 1_234.0;
/// let iq: Vec<Complex64> = (0..64)
///     .map(|n| Complex64::cis(std::f64::consts::TAU * f * n as f64 / fs))
///     .collect();
/// let inst = instantaneous_frequency(&iq, fs);
/// assert!(inst.iter().all(|&x| (x - f).abs() < 1e-6));
/// ```
pub fn instantaneous_frequency(iq: &[Complex64], sample_rate: f64) -> Vec<f64> {
    if iq.len() < 2 {
        return vec![0.0; iq.len()];
    }
    let scale = sample_rate / std::f64::consts::TAU;
    let deltas: Vec<f64> = iq
        .iter()
        .zip(iq.iter().skip(1))
        .map(|(prev, next)| (*next * prev.conj()).arg() * scale)
        .collect();
    // The first sample has no predecessor; repeat the first measured value
    // so the output length matches the input.
    let first = deltas.first().copied().unwrap_or(0.0);
    let mut out = Vec::with_capacity(iq.len());
    out.push(first);
    out.extend(deltas);
    out
}

/// Mixes a capture down by `offset_hz` (retunes the baseband), so a
/// carrier away from the capture center lands at DC before demodulation.
pub fn retune(iq: &[Complex64], offset_hz: f64, sample_rate: f64) -> Vec<Complex64> {
    let step = -std::f64::consts::TAU * offset_hz / sample_rate;
    iq.iter()
        .enumerate()
        .map(|(n, &z)| z * Complex64::cis(step * n as f64))
        .collect()
}

/// Complex moving-average lowpass: `passes` cascaded boxcars of `len`
/// samples (two passes ≈ triangular response). The standard cheap channel
/// filter in front of an envelope detector; first null at `fs/len`.
pub fn lowpass_iq(iq: &[Complex64], len: usize, passes: usize) -> Vec<Complex64> {
    if len <= 1 || passes == 0 || iq.is_empty() {
        return iq.to_vec();
    }
    let mut out = iq.to_vec();
    let half = len / 2;
    for _ in 0..passes {
        let src = out.clone();
        for (i, o) in out.iter_mut().enumerate() {
            let lo = i.saturating_sub(half);
            let hi = (i + half).min(src.len() - 1);
            let sum: Complex64 = src[lo..=hi].iter().copied().sum();
            *o = sum / (hi - lo + 1) as f64;
        }
    }
    out
}

/// Centered moving average with half-window `(len-1)/2`; `len <= 1` is the
/// identity. Edges use the available samples (shorter windows).
pub fn moving_average(xs: &[f64], len: usize) -> Vec<f64> {
    if len <= 1 || xs.is_empty() {
        return xs.to_vec();
    }
    let half = len / 2;
    (0..xs.len())
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half).min(xs.len() - 1);
            xs[lo..=hi].iter().sum::<f64>() / (hi - lo + 1) as f64
        })
        .collect()
}

/// A short-time Fourier transform (spectrogram): power per (frame, bin).
///
/// Frames of `frame_len` samples advance by `hop`; each is Hann-windowed
/// and transformed; bins are in FFT order (DC first). Returns an empty vector
/// when the signal is shorter than one frame.
///
/// # Panics
///
/// Panics if `frame_len` or `hop` is zero.
pub fn spectrogram(iq: &[Complex64], frame_len: usize, hop: usize) -> Vec<Vec<f64>> {
    assert!(frame_len > 0 && hop > 0, "frame and hop must be non-zero");
    if iq.len() < frame_len {
        return Vec::new();
    }
    let plan = crate::fft::cached_plan(frame_len);
    let coeffs = hann(frame_len);
    let mut frames = Vec::new();
    let mut start = 0usize;
    while start + frame_len <= iq.len() {
        let mut buf: Vec<Complex64> = iq[start..start + frame_len]
            .iter()
            .zip(&coeffs)
            .map(|(z, &c)| z.scale(c))
            .collect();
        plan.forward(&mut buf);
        frames.push(buf.iter().map(|z| z.norm_sqr()).collect());
        start += hop;
    }
    frames
}

/// One frame of a tracked carrier ridge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RidgePoint {
    /// Frame start time in seconds.
    pub time: f64,
    /// Instantaneous carrier offset from the capture center, in Hz.
    pub frequency_offset: f64,
    /// Carrier amplitude at the ridge (envelope units).
    pub amplitude: f64,
}

/// Tracks a (possibly frequency-swept) carrier through a spectrogram and
/// reads its amplitude along the ridge — §4.3's "carrier tracking"
/// demodulation that defeats spread-spectrum clocking: "the signals are
/// only weaker in an averaged sense: attackers can still track the carrier
/// and use the full power of the signal after demodulation".
///
/// Each frame's strongest bin is taken as the instantaneous carrier; its
/// magnitude (normalized by the window's coherent gain, so a stable tone
/// reads its true envelope amplitude) is the demodulated sample.
///
/// With `band = Some((lo, hi))` the search is restricted to offsets
/// within `lo..=hi` Hz — a tracking receiver knows roughly where its
/// carrier sweeps, and constraining the search keeps weak-envelope frames
/// from locking onto unrelated signals. `None` searches every bin.
///
/// # Panics
///
/// Panics if `frame_len` or `hop` is zero, or the band excludes every bin.
pub fn ridge_track_in_band(
    iq: &[Complex64],
    sample_rate: f64,
    frame_len: usize,
    hop: usize,
    band: Option<(f64, f64)>,
) -> Vec<RidgePoint> {
    let frames = spectrogram(iq, frame_len, hop);
    // The Hann window's coherent gain (the mean of its coefficients).
    let cg = hann(frame_len).iter().sum::<f64>() / frame_len as f64;
    let bin_offset = |bin: usize| -> f64 {
        (if bin <= frame_len / 2 {
            bin as f64
        } else {
            bin as f64 - frame_len as f64
        }) * sample_rate
            / frame_len as f64
    };
    let allowed: Vec<usize> = (0..frame_len)
        .filter(|&b| match band {
            Some((lo, hi)) => {
                let f = bin_offset(b);
                f >= lo && f <= hi
            }
            None => true,
        })
        .collect();
    assert!(!allowed.is_empty(), "band excludes every spectrogram bin");
    frames
        .iter()
        .enumerate()
        .map(|(k, frame)| {
            // Fold over the non-empty `allowed` set (asserted above),
            // keeping the last maximum to match `max_by`'s tie-breaking;
            // the 0 fallback is unreachable.
            let peak = allowed
                .iter()
                .copied()
                .fold(None, |best, a| match best {
                    Some(b) if frame[a].total_cmp(&frame[b]).is_lt() => Some(b),
                    _ => Some(a),
                })
                .unwrap_or(0);
            RidgePoint {
                time: k as f64 * hop as f64 / sample_rate,
                frequency_offset: bin_offset(peak),
                amplitude: safe_sqrt(frame[peak]) / (frame_len as f64 * cg),
            }
        })
        .collect()
}

/// Verdict of the AM-vs-FM discrimination probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModulationStats {
    /// Relative envelope modulation depth: std(envelope) / mean(envelope).
    pub am_depth: f64,
    /// Standard deviation of the instantaneous frequency in Hz.
    pub fm_deviation_hz: f64,
}

/// Which kind of modulation dominates a carrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModulationKind {
    /// Envelope varies, frequency stable: amplitude modulation.
    Am,
    /// Frequency varies, envelope stable: frequency modulation.
    Fm,
    /// Neither varies appreciably.
    Unmodulated,
}

/// Measures envelope and frequency variation of a carrier capture (carrier
/// at DC) and classifies the dominant modulation.
///
/// `am_threshold` is the minimum relative envelope depth, and
/// `fm_threshold_hz` the minimum frequency deviation, to count as
/// modulated. The `smooth` window suppresses additive noise before the
/// statistics (choose ≈ fs / (10·f_mod)).
pub fn classify_modulation(
    iq: &[Complex64],
    sample_rate: f64,
    smooth: usize,
    am_threshold: f64,
    fm_threshold_hz: f64,
) -> (ModulationStats, ModulationKind) {
    let env = envelope(iq, smooth);
    let mean = crate::stats::mean(&env);
    let am_depth = if mean > 0.0 {
        crate::stats::std_dev(&env) / mean
    } else {
        0.0
    };
    let inst = moving_average(&instantaneous_frequency(iq, sample_rate), smooth);
    let fm_deviation_hz = crate::stats::std_dev(&inst);
    let stats = ModulationStats {
        am_depth,
        fm_deviation_hz,
    };
    let am = am_depth >= am_threshold;
    let fm = fm_deviation_hz >= fm_threshold_hz;
    let kind = match (am, fm) {
        // When both trip, compare normalized strengths.
        (true, true) => {
            if am_depth / am_threshold >= fm_deviation_hz / fm_threshold_hz {
                ModulationKind::Am
            } else {
                ModulationKind::Fm
            }
        }
        (true, false) => ModulationKind::Am,
        (false, true) => ModulationKind::Fm,
        (false, false) => ModulationKind::Unmodulated,
    };
    (stats, kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::TAU;

    fn am_signal(n: usize, fs: f64, f_mod: f64, depth: f64) -> Vec<Complex64> {
        (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                Complex64::from_polar(1.0 + depth * (TAU * f_mod * t).sin(), 0.0)
            })
            .collect()
    }

    fn fm_signal(n: usize, fs: f64, f_mod: f64, deviation: f64) -> Vec<Complex64> {
        let mut phase = 0.0f64;
        (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                let inst = deviation * (TAU * f_mod * t).sin();
                phase += TAU * inst / fs;
                Complex64::cis(phase)
            })
            .collect()
    }

    #[test]
    fn envelope_recovers_am() {
        let fs = 100_000.0;
        let iq = am_signal(10_000, fs, 1_000.0, 0.5);
        let env = envelope(&iq, 1);
        let max = env.iter().cloned().fold(0.0, f64::max);
        let min = env.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((max - 1.5).abs() < 1e-3);
        assert!((min - 0.5).abs() < 1e-3);
    }

    #[test]
    fn instantaneous_frequency_recovers_fm() {
        let fs = 100_000.0;
        let iq = fm_signal(10_000, fs, 500.0, 2_000.0);
        let inst = instantaneous_frequency(&iq, fs);
        let peak = inst.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!((peak - 2_000.0).abs() < 20.0, "peak deviation {peak}");
    }

    #[test]
    fn retune_moves_carrier_to_dc() {
        let fs = 50_000.0;
        let offset = 5_000.0;
        let iq: Vec<Complex64> = (0..4096)
            .map(|n| Complex64::cis(TAU * offset * n as f64 / fs))
            .collect();
        let tuned = retune(&iq, offset, fs);
        let inst = instantaneous_frequency(&tuned, fs);
        assert!(inst.iter().skip(1).all(|&f| f.abs() < 1e-6));
    }

    #[test]
    fn moving_average_smooths() {
        let xs = [0.0, 10.0, 0.0, 10.0, 0.0, 10.0];
        let sm = moving_average(&xs, 3);
        // Interior points average their neighborhood.
        assert!((sm[2] - 20.0 / 3.0).abs() < 1e-12);
        assert_eq!(moving_average(&xs, 1), xs.to_vec());
        assert!(moving_average(&[], 5).is_empty());
    }

    #[test]
    fn lowpass_rejects_offset_tone_keeps_dc() {
        let fs = 24_000.0;
        // DC carrier + strong interferer at 7 kHz offset.
        let iq: Vec<Complex64> = (0..4096)
            .map(|n| Complex64::ONE + Complex64::cis(TAU * 7_000.0 * n as f64 / fs).scale(2.0))
            .collect();
        let filtered = lowpass_iq(&iq, 12, 2);
        // Middle samples: DC survives, the interferer is strongly rejected.
        let mid = &filtered[1000..3000];
        let mean: Complex64 = mid.iter().copied().sum::<Complex64>() / mid.len() as f64;
        assert!((mean.norm() - 1.0).abs() < 0.05, "DC lost: {}", mean.norm());
        let ripple = mid.iter().map(|z| (*z - mean).norm()).fold(0.0, f64::max);
        assert!(ripple < 0.1, "interferer leaked: ripple {ripple}");
    }

    #[test]
    fn lowpass_degenerate_params_are_identity() {
        let iq = vec![Complex64::new(1.0, 2.0); 8];
        assert_eq!(lowpass_iq(&iq, 1, 3), iq);
        assert_eq!(lowpass_iq(&iq, 8, 0), iq);
        assert!(lowpass_iq(&[], 8, 2).is_empty());
    }

    #[test]
    fn classify_am_signal() {
        let fs = 100_000.0;
        let iq = am_signal(20_000, fs, 1_000.0, 0.4);
        let (stats, kind) = classify_modulation(&iq, fs, 5, 0.05, 50.0);
        assert_eq!(kind, ModulationKind::Am);
        assert!(stats.am_depth > 0.2, "depth {}", stats.am_depth);
    }

    #[test]
    fn classify_fm_signal() {
        let fs = 100_000.0;
        let iq = fm_signal(20_000, fs, 500.0, 3_000.0);
        let (stats, kind) = classify_modulation(&iq, fs, 5, 0.05, 50.0);
        assert_eq!(kind, ModulationKind::Fm);
        assert!(stats.fm_deviation_hz > 1_000.0);
    }

    #[test]
    fn classify_bare_carrier() {
        let iq: Vec<Complex64> = (0..10_000).map(|_| Complex64::ONE).collect();
        let (_, kind) = classify_modulation(&iq, 100_000.0, 5, 0.05, 50.0);
        assert_eq!(kind, ModulationKind::Unmodulated);
    }

    #[test]
    fn spectrogram_tracks_a_sweep() {
        // Frequency steps from bin 4 to bin 12 halfway through.
        let fs = 32_768.0;
        let frame = 256;
        let n = 8_192;
        let iq: Vec<Complex64> = (0..n)
            .map(|i| {
                let f = if i < n / 2 { 4.0 } else { 12.0 } * fs / frame as f64;
                Complex64::cis(TAU * f * i as f64 / fs)
            })
            .collect();
        let frames = spectrogram(&iq, frame, frame);
        assert_eq!(frames.len(), n / frame);
        let early = fase_argmax(&frames[2]);
        let late = fase_argmax(&frames[frames.len() - 3]);
        assert_eq!(early, 4);
        assert_eq!(late, 12);
    }

    fn fase_argmax(xs: &[f64]) -> usize {
        crate::stats::argmax(xs).expect("non-empty")
    }

    #[test]
    fn ridge_track_follows_swept_am_carrier() {
        // A carrier swept ±100 kHz (triangular, 100 µs period) whose
        // amplitude toggles 1.0 / 0.3 every 250 µs: tracking must recover
        // both the sweep and the amplitude keying.
        let fs = 1.0e6;
        let n = 1 << 14; // 16.4 ms
        let sweep_period = 100e-6;
        let key_period = 250e-6;
        let mut phase = 0.0f64;
        let iq: Vec<Complex64> = (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                let sweep_phase = (t / sweep_period).rem_euclid(1.0);
                let tri = if sweep_phase < 0.5 {
                    2.0 * sweep_phase
                } else {
                    2.0 * (1.0 - sweep_phase)
                };
                let dev = 200e3 * (tri - 0.5);
                phase += TAU * dev / fs;
                let amp = if (t / key_period).rem_euclid(2.0) < 1.0 {
                    1.0
                } else {
                    0.3
                };
                Complex64::from_polar(amp, phase)
            })
            .collect();
        let ridge = ridge_track_in_band(&iq, fs, 32, 16, None);
        assert!(ridge.len() > 500);
        // The tracked offsets span most of the ±100 kHz sweep.
        let max_off = ridge
            .iter()
            .map(|p| p.frequency_offset)
            .fold(f64::MIN, f64::max);
        let min_off = ridge
            .iter()
            .map(|p| p.frequency_offset)
            .fold(f64::MAX, f64::min);
        assert!(
            max_off > 60e3 && min_off < -60e3,
            "sweep not tracked: {min_off}..{max_off}"
        );
        // Amplitudes cluster near 1.0 and 0.3 (frames straddling a keying
        // edge may land between).
        let highs = ridge.iter().filter(|p| p.amplitude > 0.8).count();
        let lows = ridge.iter().filter(|p| p.amplitude < 0.45).count();
        assert!(highs > ridge.len() / 4, "high-amplitude frames missing");
        assert!(lows > ridge.len() / 4, "low-amplitude frames missing");
        // Demodulated keying: mean amplitude alternates between key slots.
        let slot = |k: usize| -> f64 {
            let vals: Vec<f64> = ridge
                .iter()
                .filter(|p| ((p.time / key_period) as usize) == k)
                .map(|p| p.amplitude)
                .collect();
            crate::stats::mean(&vals)
        };
        assert!(
            slot(0) > 2.0 * slot(1),
            "keying not recovered: {} vs {}",
            slot(0),
            slot(1)
        );
    }

    #[test]
    fn ridge_track_reads_true_amplitude_for_stable_tone() {
        let fs = 100e3;
        let iq: Vec<Complex64> = (0..4096)
            .map(|i| Complex64::from_polar(2.5, TAU * 12_500.0 * i as f64 / fs))
            .collect();
        let ridge = ridge_track_in_band(&iq, fs, 64, 64, None);
        for p in &ridge {
            assert!((p.frequency_offset - 12_500.0).abs() < fs / 64.0);
            assert!((p.amplitude - 2.5).abs() < 0.1, "amp {}", p.amplitude);
        }
    }

    #[test]
    fn spectrogram_short_input() {
        assert!(spectrogram(&[Complex64::ONE; 10], 64, 32).is_empty());
    }
}
