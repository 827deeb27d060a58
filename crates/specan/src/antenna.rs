//! Antenna frequency response.
//!
//! The paper received with an AOR LA400 magnetic loop "designed to detect
//! broadcast radio signals over a wide frequency range". A loop antenna is
//! not flat: its sensitivity rises with frequency (Faraday's law), peaks
//! around the loop's resonance, and rolls off beyond it. The response
//! multiplies every received signal and the *shape* survives into the
//! spectra the analyst sees, so modeling it matters for realistic wideband
//! figures. Campaign spectra are captured flat;
//! [`AntennaResponse::shape_spectrum`] applies a response to them. FASE
//! itself is insensitive to any smooth response because Eq. (2) compares
//! the same frequency across measurements.

use fase_dsp::{Hertz, Spectrum};

/// Frequency response of the receive antenna.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum AntennaResponse {
    /// Unity gain everywhere (the default).
    #[default]
    Flat,
    /// An electrically small magnetic loop (series-RLC voltage response):
    /// gain rises +6 dB/octave below resonance, peaks at the resonance
    /// with quality factor `q`, and falls −6 dB/octave above it.
    MagneticLoop {
        /// Resonance frequency of the tuned loop.
        resonance: Hertz,
        /// Quality factor (peak height ≈ 20·log10(q) over the skirt).
        q: f64,
    },
}

impl AntennaResponse {
    /// The AOR LA400 style loop used in the paper: resonant mid-band with a
    /// moderate Q (wideband listening loop, not a narrow tuned loop).
    pub fn aor_la400() -> AntennaResponse {
        AntennaResponse::MagneticLoop {
            resonance: Hertz::from_mhz(2.0),
            q: 2.0,
        }
    }

    /// Power gain (linear) at frequency `f`, normalized to 1.0 at the
    /// response peak.
    pub fn power_gain(&self, f: Hertz) -> f64 {
        match *self {
            AntennaResponse::Flat => 1.0,
            AntennaResponse::MagneticLoop { resonance, q } => {
                if f.hz() <= 0.0 {
                    return 0.0;
                }
                // Series-RLC voltage response of a small loop:
                // |H(f)| = (f/f0) / sqrt((1 − (f/f0)²)² + (f/f0/Q)²),
                // normalized so the peak is 1.
                let x = f.hz() / resonance.hz();
                let denom = (1.0 - x * x).powi(2) + (x / q).powi(2);
                let h = x / denom.sqrt();
                let h_peak = q; // |H| at resonance = Q (for x = 1)
                (h / h_peak).powi(2)
            }
        }
    }

    /// Gain in dB at frequency `f`.
    pub fn gain_db(&self, f: Hertz) -> f64 {
        10.0 * self.power_gain(f).log10()
    }

    /// Applies the response to a measured spectrum (per-bin power scaling).
    pub fn shape_spectrum(&self, spectrum: &Spectrum) -> Spectrum {
        match self {
            AntennaResponse::Flat => spectrum.clone(),
            _ => {
                let powers: Vec<f64> = (0..spectrum.len())
                    .map(|i| spectrum.power_at(i) * self.power_gain(spectrum.frequency_at(i)))
                    .collect();
                // power_gain is a finite closed-form response, so the
                // scaled powers stay valid; if a pathological gain ever
                // slipped through, passing the spectrum unshaped beats
                // aborting a whole campaign.
                Spectrum::new(spectrum.start(), spectrum.resolution(), powers)
                    .unwrap_or_else(|_| spectrum.clone())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_is_unity() {
        let a = AntennaResponse::Flat;
        for f in [1e3, 1e6, 1e9] {
            assert_eq!(a.power_gain(Hertz(f)), 1.0);
            assert_eq!(a.gain_db(Hertz(f)), 0.0);
        }
    }

    #[test]
    fn loop_peaks_at_resonance() {
        let a = AntennaResponse::MagneticLoop {
            resonance: Hertz::from_mhz(2.0),
            q: 3.0,
        };
        let peak = a.power_gain(Hertz::from_mhz(2.0));
        assert!((peak - 1.0).abs() < 1e-12);
        assert!(a.power_gain(Hertz::from_mhz(0.2)) < peak);
        assert!(a.power_gain(Hertz::from_mhz(20.0)) < peak);
    }

    #[test]
    fn loop_slopes_match_physics() {
        let a = AntennaResponse::MagneticLoop {
            resonance: Hertz::from_mhz(10.0),
            q: 2.0,
        };
        // Well below resonance: +6 dB per octave (power gain ∝ f²).
        let low = a.gain_db(Hertz::from_khz(100.0));
        let low2 = a.gain_db(Hertz::from_khz(200.0));
        assert!((low2 - low - 6.0).abs() < 0.2, "low slope {}", low2 - low);
        // Well above: −6 dB per octave (1/x voltage rolloff).
        let hi = a.gain_db(Hertz::from_mhz(100.0));
        let hi2 = a.gain_db(Hertz::from_mhz(200.0));
        assert!((hi - hi2 - 6.0).abs() < 0.5, "high slope {}", hi - hi2);
    }

    #[test]
    fn shapes_spectrum_per_bin() {
        let s = Spectrum::new(Hertz(1.0e6), Hertz(1.0e6), vec![1e-12; 5]).unwrap();
        let a = AntennaResponse::aor_la400();
        let shaped = a.shape_spectrum(&s);
        // Bin at 2 MHz (the resonance) keeps the most power.
        let (peak, _) = shaped.peak_bin();
        assert_eq!(shaped.frequency_at(peak), Hertz(2.0e6));
        for i in 0..5 {
            let expected = 1e-12 * a.power_gain(s.frequency_at(i));
            assert!((shaped.power_at(i) - expected).abs() < 1e-24);
        }
        // Flat response returns an identical spectrum.
        assert_eq!(AntennaResponse::Flat.shape_spectrum(&s), s);
    }

    #[test]
    fn zero_frequency_is_silent_for_loops() {
        let a = AntennaResponse::aor_la400();
        assert_eq!(a.power_gain(Hertz::ZERO), 0.0);
    }
}
