//! Side-band attribution: working backwards from a spectral peak to the
//! carrier that generated it (§2.3).
//!
//! The forward pipeline scores candidate *carrier* frequencies directly.
//! This module answers the inverse diagnostic question an analyst asks
//! when staring at one suspicious peak: *"is this a side-band, of which
//! carrier, at which harmonic?"* The paper's key observation makes the
//! answer unambiguous: across the five measurements, an h-th-harmonic
//! side-band moves by `h·f_Δ` per step — "the observed spacing between the
//! side-band peaks is unique for each harmonic".

use crate::spectra::CampaignSpectra;
use fase_dsp::Hertz;
use std::fmt;

/// One candidate interpretation of a spectral peak.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Attribution {
    /// The harmonic `h` of `f_alt` this peak would be (±1, ±2, …).
    pub harmonic: i32,
    /// The implied carrier frequency `f_peak − h·f_alt_1`.
    pub carrier: Hertz,
    /// How many of the N spectra show the expected shifted peak.
    pub consistent_spectra: usize,
    /// Total number of spectra in the campaign (the denominator of
    /// "`consistent_spectra` out of …").
    pub n_spectra: usize,
    /// Mean power ratio of the expected peak location vs. the other
    /// spectra at that same location (≫ 1 when the attribution is right),
    /// averaged over the spectra that could actually be evaluated.
    pub mean_ratio: f64,
}

impl fmt::Display for Attribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "h = {:+}: carrier {} ({}/{} spectra consistent, ratio {:.1})",
            self.harmonic, self.carrier, self.consistent_spectra, self.n_spectra, self.mean_ratio
        )
    }
}

/// Power ratio a spectrum must show at its expected position to count as
/// consistent.
const MIN_RATIO: f64 = 2.0;

/// Highest |h| to consider.
const MAX_HARMONIC: i32 = 5;

/// Search half-width (bins) around each expected peak position.
const SEARCH_BINS: usize = 3;

/// Ranks harmonic attributions of a peak observed at `f_peak` in the
/// campaign's **first** spectrum (`f_alt_1`).
///
/// For each candidate `h`, the implied carrier is `f_peak − h·f_alt_1`;
/// spectrum `i` is *consistent* when its power near
/// `carrier + h·f_alt_i` clearly exceeds the other spectra at that same
/// frequency. Candidates are returned sorted by consistency, then ratio;
/// interpretations whose implied carrier falls outside the band are
/// skipped.
pub fn attribute_peak(spectra: &CampaignSpectra, f_peak: Hertz) -> Vec<Attribution> {
    let f_alts: Vec<f64> = spectra.spectra().iter().map(|s| s.f_alt.hz()).collect();
    // CampaignSpectra::new guarantees at least two spectra; the guard keeps
    // the lookups below panic-free.
    let Some(&f_alt1) = f_alts.first() else {
        return Vec::new();
    };
    let n = spectra.len();
    let first = spectra.spectrum(0);
    let res = first.resolution().hz();
    let mut out = Vec::new();
    for h in (1..=MAX_HARMONIC).flat_map(|k| [k, -k]) {
        let carrier = Hertz(f_peak.hz() - h as f64 * f_alt1);
        if carrier.hz() < first.start().hz() || carrier.hz() > first.stop().hz() {
            continue;
        }
        let mut consistent = 0usize;
        let mut ratio_sum = 0.0;
        let mut evaluated = 0usize;
        for (i, &f_alt_i) in f_alts.iter().enumerate() {
            let expected = Hertz(carrier.hz() + h as f64 * f_alt_i);
            let own = local_max(spectra, i, expected, SEARCH_BINS, res);
            let others: f64 = (0..n)
                .filter(|&j| j != i)
                .map(|j| local_max(spectra, j, expected, SEARCH_BINS, res))
                .sum::<f64>()
                / (n - 1) as f64;
            if others > 0.0 {
                let ratio = own / others;
                ratio_sum += ratio;
                evaluated += 1;
                if ratio >= MIN_RATIO {
                    consistent += 1;
                }
            }
        }
        // Spectra where `others == 0.0` contribute nothing to `ratio_sum`,
        // so averaging over all `n` would silently deflate the ratio.
        let mean_ratio = if evaluated > 0 {
            ratio_sum / evaluated as f64
        } else {
            0.0
        };
        out.push(Attribution {
            harmonic: h,
            carrier,
            consistent_spectra: consistent,
            n_spectra: n,
            mean_ratio,
        });
    }
    out.sort_by(|a, b| {
        b.consistent_spectra
            .cmp(&a.consistent_spectra)
            .then(b.mean_ratio.total_cmp(&a.mean_ratio))
    });
    out
}

fn local_max(spectra: &CampaignSpectra, i: usize, f: Hertz, half_bins: usize, res: f64) -> f64 {
    let s = spectra.spectrum(i);
    let mut best: f64 = 0.0;
    for k in -(half_bins as i64)..=half_bins as i64 {
        if let Some(v) = s.sample(Hertz(f.hz() + k as f64 * res)) {
            best = best.max(v);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CampaignConfig;
    use crate::heuristic::campaign_from_spectra;
    use fase_dsp::Spectrum;

    /// Carrier at 100 kHz with side-bands at h = ±1 and ±3.
    fn campaign() -> CampaignSpectra {
        let config = CampaignConfig::builder()
            .band(Hertz(0.0), Hertz(300_000.0))
            .resolution(Hertz(100.0))
            .alternation(Hertz(20_000.0), Hertz(500.0), 5)
            .build()
            .unwrap();
        let bins = config.bins();
        let spectra: Vec<Spectrum> = config
            .alternation_frequencies()
            .iter()
            .map(|f_alt| {
                let mut p = vec![1e-14; bins];
                p[1000] = 1e-10;
                for h in [1i32, -1, 3, -3] {
                    let b = ((100_000.0 + h as f64 * f_alt.hz()) / 100.0).round() as i64;
                    if (0..bins as i64).contains(&b) {
                        p[b as usize] = 2e-12;
                    }
                }
                Spectrum::new(Hertz(0.0), Hertz(100.0), p).unwrap()
            })
            .collect();
        campaign_from_spectra(config, spectra).unwrap()
    }

    #[test]
    fn first_harmonic_peak_attributes_correctly() {
        let c = campaign();
        // The upper first-harmonic side-band of f_alt_1 sits at 120 kHz.
        let ranked = attribute_peak(&c, Hertz(120_000.0));
        let best = ranked[0];
        assert_eq!(best.harmonic, 1, "{ranked:?}");
        assert!((best.carrier.hz() - 100_000.0).abs() < 1.0);
        assert_eq!(best.consistent_spectra, 5);
    }

    #[test]
    fn third_harmonic_peak_attributes_correctly() {
        let c = campaign();
        // 100 kHz + 3·20 kHz = 160 kHz.
        let ranked = attribute_peak(&c, Hertz(160_000.0));
        let best = ranked[0];
        assert_eq!(best.harmonic, 3);
        assert!((best.carrier.hz() - 100_000.0).abs() < 1.0);
        assert_eq!(best.consistent_spectra, 5);
    }

    #[test]
    fn lower_sideband_attributes_with_negative_harmonic() {
        let c = campaign();
        // 100 kHz − 20 kHz = 80 kHz.
        let ranked = attribute_peak(&c, Hertz(80_000.0));
        let best = ranked[0];
        assert_eq!(best.harmonic, -1);
        assert!((best.carrier.hz() - 100_000.0).abs() < 1.0);
    }

    #[test]
    fn stationary_peak_attributes_nowhere() {
        let config = CampaignConfig::builder()
            .band(Hertz(0.0), Hertz(300_000.0))
            .resolution(Hertz(100.0))
            .alternation(Hertz(20_000.0), Hertz(500.0), 5)
            .build()
            .unwrap();
        let bins = config.bins();
        let spectra: Vec<Spectrum> = (0..5)
            .map(|_| {
                let mut p = vec![1e-14; bins];
                p[1200] = 5e-11; // fixed spur at 120 kHz in every spectrum
                Spectrum::new(Hertz(0.0), Hertz(100.0), p).unwrap()
            })
            .collect();
        let c = campaign_from_spectra(config, spectra).unwrap();
        let ranked = attribute_peak(&c, Hertz(120_000.0));
        assert!(
            ranked.iter().all(|a| a.consistent_spectra <= 1),
            "a stationary spur must not attribute: {ranked:?}"
        );
    }

    #[test]
    fn out_of_band_carriers_are_skipped() {
        let c = campaign();
        // A peak near the band's lower edge: h = +5 would imply a negative
        // carrier frequency, which must not be offered.
        let ranked = attribute_peak(&c, Hertz(30_000.0));
        assert!(ranked.iter().all(|a| a.carrier.hz() >= 0.0));
    }

    #[test]
    fn display() {
        let a = Attribution {
            harmonic: -3,
            carrier: Hertz(100_000.0),
            consistent_spectra: 4,
            n_spectra: 5,
            mean_ratio: 12.5,
        };
        // The full rendered string: the denominator is the spectra count,
        // not (as it once was) the ratio truncated to an integer.
        assert_eq!(
            format!("{a}"),
            "h = -3: carrier 100.000 kHz (4/5 spectra consistent, ratio 12.5)"
        );
    }

    #[test]
    fn mean_ratio_averages_only_evaluated_spectra() {
        let c = campaign();
        let ranked = attribute_peak(&c, Hertz(120_000.0));
        let best = ranked[0];
        assert_eq!(best.n_spectra, 5);
        // Every spectrum in the synthetic campaign has a nonzero floor, so
        // all five are evaluated and the mean is over five honest ratios —
        // well above the consistency threshold, not deflated by zeros.
        assert!(best.mean_ratio >= MIN_RATIO, "{best:?}");
    }
}
