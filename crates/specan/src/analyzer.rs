//! The spectrum analyzer: windowed FFT of complex-baseband captures with
//! dBm-calibrated bin powers (our Agilent MXA N9020A stand-in).

use fase_dsp::fft::{cached_plan, fft_shift};
use fase_dsp::{Complex64, Hertz, Spectrum, SpectrumError, Window};
use fase_emsim::CaptureWindow;
use std::cell::RefCell;

thread_local! {
    /// Reused FFT workspace: campaigns transform thousands of equal-length
    /// captures per worker thread, and the windowed copy of the capture
    /// does not need a fresh allocation each time.
    static FFT_BUF: RefCell<Vec<Complex64>> = const { RefCell::new(Vec::new()) };
}

/// A calibrated FFT spectrum analyzer.
///
/// Bin powers are normalized so a CW tone of complex-envelope magnitude `a`
/// reads `|a|²` milliwatts at its bin — matching the `dBm ↔ envelope`
/// convention of the simulator ([`fase_emsim::ctx::dbm_to_amplitude`]).
///
/// # Examples
///
/// ```
/// use fase_dsp::{Complex64, Hertz};
/// use fase_emsim::CaptureWindow;
/// use fase_specan::SpectrumAnalyzer;
///
/// // A -90 dBm tone 1 kHz above the center frequency.
/// let n = 4096;
/// let fs = 65_536.0;
/// let window = CaptureWindow::new(Hertz::from_khz(100.0), fs, n, 0.0);
/// let amp = 10f64.powf(-90.0 / 20.0);
/// let iq: Vec<Complex64> = (0..n)
///     .map(|t| Complex64::from_polar(amp, std::f64::consts::TAU * 1024.0 * t as f64 / fs))
///     .collect();
/// let analyzer = SpectrumAnalyzer::default();
/// let spectrum = analyzer.spectrum(&window, &iq)?;
/// let peak = spectrum.peak_bin();
/// assert_eq!(spectrum.frequency_at(peak.0), Hertz(101_024.0));
/// assert!((spectrum.dbm_at(peak.0).dbm() - -90.0).abs() < 0.5);
/// # Ok::<(), fase_dsp::SpectrumError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SpectrumAnalyzer {
    window: Window,
}

impl SpectrumAnalyzer {
    /// Creates an analyzer using the given FFT window.
    pub fn new(window: Window) -> SpectrumAnalyzer {
        SpectrumAnalyzer { window }
    }

    /// The FFT window in use.
    pub fn window(&self) -> Window {
        self.window
    }

    /// Computes the calibrated power spectrum of one capture.
    ///
    /// The returned spectrum covers `[center − fs/2, center + fs/2)` with
    /// resolution `fs / n`.
    ///
    /// # Errors
    ///
    /// Returns a [`SpectrumError`] if the capture length does not match the
    /// window.
    ///
    /// # Panics
    ///
    /// Panics if `iq.len() != window.len()` (caller bug).
    pub fn spectrum(
        &self,
        window: &CaptureWindow,
        iq: &[Complex64],
    ) -> Result<Spectrum, SpectrumError> {
        assert_eq!(iq.len(), window.len(), "capture length must match window");
        let n = iq.len();
        // Window tables (coefficients + coherent gain) come from the
        // process-wide cache, the window multiply is fused into the copy into
        // the reused FFT workspace, and bin powers use norm_sqr with a
        // squared scale — no per-bin hypot, no per-capture allocation
        // beyond the power vector the Spectrum owns.
        let tables = self.window.tables(n);
        let scale = 1.0 / (n as f64 * tables.coherent_gain());
        let scale_sq = scale * scale;
        let power = FFT_BUF.with(|cell| match cell.try_borrow_mut() {
            Ok(mut buf) => windowed_power(iq, tables.coefficients(), scale_sq, &mut buf),
            // Reentrancy (analyzer called inside an analyzer call on this
            // thread) cannot share the workspace; fall back to a local one.
            Err(_) => windowed_power(iq, tables.coefficients(), scale_sq, &mut Vec::new()),
        });
        let resolution = Hertz(window.sample_rate() / n as f64);
        let start = Spectrum::centered_start(window.center(), resolution, n);
        Spectrum::new(start, resolution, power)
    }
}

/// Windowed FFT power of one capture: fused window-multiply copy into
/// `buf`, in-place transform through the process-wide plan cache, centered
/// bin order, and `|z|²·scale²` readout.
fn windowed_power(
    iq: &[Complex64],
    coeffs: &[f64],
    scale_sq: f64,
    buf: &mut Vec<Complex64>,
) -> Vec<f64> {
    buf.clear();
    buf.extend(iq.iter().zip(coeffs).map(|(z, &c)| z.scale(c)));
    // Campaigns transform thousands of equal-length captures; the
    // process-wide plan cache pays the twiddle setup once per length.
    cached_plan(iq.len()).forward(buf);
    fft_shift(buf);
    buf.iter().map(|z| z.norm_sqr() * scale_sq).collect()
}

impl Default for SpectrumAnalyzer {
    /// Blackman–Harris: the high-dynamic-range window FASE needs to see
    /// weak side-bands next to strong carriers.
    fn default() -> SpectrumAnalyzer {
        SpectrumAnalyzer::new(Window::BlackmanHarris)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fase_dsp::noise::complex_normal;
    use fase_dsp::rng::SmallRng;
    use std::f64::consts::TAU;

    fn tone(n: usize, fs: f64, f_offset: f64, dbm: f64) -> Vec<Complex64> {
        let amp = 10f64.powf(dbm / 20.0);
        (0..n)
            .map(|t| Complex64::from_polar(amp, TAU * f_offset * t as f64 / fs))
            .collect()
    }

    #[test]
    fn tone_level_is_calibrated_across_windows() {
        let n = 8192;
        let fs = 819_200.0;
        let cw = CaptureWindow::new(Hertz(0.0), fs, n, 0.0);
        // Exactly bin-centered tone.
        let iq = tone(n, fs, 10.0 * fs / n as f64, -75.0);
        for w in Window::ALL {
            let analyzer = SpectrumAnalyzer::new(w);
            let spectrum = analyzer.spectrum(&cw, &iq).unwrap();
            let (b, _) = spectrum.peak_bin();
            let dbm = spectrum.dbm_at(b).dbm();
            assert!((dbm - -75.0).abs() < 0.1, "{w}: {dbm} dBm");
        }
    }

    #[test]
    fn frequency_mapping_covers_rf_span() {
        let n = 1024;
        let fs = 102_400.0;
        let cw = CaptureWindow::new(Hertz::from_mhz(1.0), fs, n, 0.0);
        let analyzer = SpectrumAnalyzer::default();
        let spectrum = analyzer.spectrum(&cw, &vec![Complex64::ZERO; n]).unwrap();
        assert_eq!(spectrum.len(), n);
        assert_eq!(spectrum.start(), Hertz(1.0e6 - 51_200.0));
        assert_eq!(spectrum.resolution(), Hertz(100.0));
        // Negative baseband tone lands below center.
        let iq = tone(n, fs, -20.0 * 100.0, -80.0);
        let spectrum = analyzer.spectrum(&cw, &iq).unwrap();
        let (b, _) = spectrum.peak_bin();
        assert_eq!(spectrum.frequency_at(b), Hertz(1.0e6 - 2_000.0));
    }

    #[test]
    fn noise_floor_reads_density_times_enbw() {
        let n = 1 << 15;
        let fs = 1.0e6;
        let cw = CaptureWindow::new(Hertz(0.0), fs, n, 0.0);
        let mut rng = SmallRng::seed_from_u64(1);
        // Complex noise with total power over the span = -60 dBm
        // → density = -60 − 10·log10(fs) dBm/Hz = -120 dBm/Hz.
        let sigma = 10f64.powf(-60.0 / 20.0);
        let iq: Vec<Complex64> = (0..n).map(|_| complex_normal(&mut rng, sigma)).collect();
        let analyzer = SpectrumAnalyzer::default();
        let spectrum = analyzer.spectrum(&cw, &iq).unwrap();
        let mean_bin = spectrum.total_power() / n as f64;
        let density = 10f64.powf(-120.0 / 10.0);
        let expected = density * spectrum.resolution().hz() * Window::BlackmanHarris.enbw_bins(n);
        let err_db = 10.0 * (mean_bin / expected).log10();
        assert!(err_db.abs() < 0.3, "floor error {err_db} dB");
    }

    #[test]
    fn averaging_four_captures_reduces_variance() {
        let n = 4096;
        let fs = 409_600.0;
        let cw = CaptureWindow::new(Hertz(0.0), fs, n, 0.0);
        let mut rng = SmallRng::seed_from_u64(2);
        let analyzer = SpectrumAnalyzer::default();
        let captures: Vec<Spectrum> = (0..4)
            .map(|_| {
                let iq: Vec<Complex64> = (0..n).map(|_| complex_normal(&mut rng, 1e-6)).collect();
                analyzer.spectrum(&cw, &iq).unwrap()
            })
            .collect();
        let avg = Spectrum::average(captures.iter()).unwrap();
        let var_single = fase_dsp::stats::variance(captures[0].powers());
        let var_avg = fase_dsp::stats::variance(avg.powers());
        assert!(
            var_avg < 0.5 * var_single,
            "averaging did not reduce variance: {var_single} -> {var_avg}"
        );
    }

    #[test]
    fn antenna_shapes_measured_spectrum() {
        let n = 1024;
        let fs = 1.0e6;
        let cw = CaptureWindow::new(Hertz::from_mhz(2.0), fs, n, 0.0);
        let iq = vec![Complex64::new(1e-6, 0.0); n];
        let flat = SpectrumAnalyzer::default().spectrum(&cw, &iq).unwrap();
        let shaped = crate::AntennaResponse::aor_la400().shape_spectrum(&flat);
        assert!(flat.same_grid(&shaped));
        // At the loop's resonance (2 MHz = capture center) the gain is
        // unity; away from it the shaped spectrum is attenuated.
        let b_center = shaped.bin_of(Hertz::from_mhz(2.0)).unwrap();
        assert!((shaped.power_at(b_center) / flat.power_at(b_center) - 1.0).abs() < 1e-9);
        let b_edge = 2;
        assert!(shaped.power_at(b_edge) < flat.power_at(b_edge));
    }

    #[test]
    #[should_panic(expected = "must match window")]
    fn mismatched_length_panics() {
        let cw = CaptureWindow::new(Hertz(0.0), 1e6, 64, 0.0);
        let _ = SpectrumAnalyzer::default().spectrum(&cw, &[Complex64::ZERO; 32]);
    }
}
