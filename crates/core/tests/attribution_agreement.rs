//! Forward/inverse agreement: the heuristic's best carrier for harmonic
//! `h` must be the same carrier the side-band attributor recovers from
//! that harmonic's observed peak — on full campaigns and on degraded
//! campaigns that kept only 3 or 4 of the 5 spectra.

use fase_core::heuristic::{all_harmonic_scores, campaign_from_spectra};
use fase_core::{attribute_peak, CampaignConfig, CampaignSpectra, HeuristicConfig};
use fase_dsp::{Hertz, Spectrum};

const F_CARRIER: f64 = 100_000.0;
const F_SPUR: f64 = 230_000.0;
const RES: f64 = 100.0;
const SIDE_HARMONICS: [i32; 4] = [1, -1, 3, -3];
/// The heuristic's windowed max (±2 bins once the f_Δ clamp applies at
/// 500 Hz / 100 Hz) makes the score trace a plateau around the true
/// carrier, so the forward argmax may sit up to 2 bins off-center.
const TOL: f64 = 2.0 * RES;

/// Five-point campaign config: band 0–300 kHz at 100 Hz, alternation
/// 20 kHz stepped by 500 Hz.
fn config() -> CampaignConfig {
    CampaignConfig::builder()
        .band(Hertz(0.0), Hertz(300_000.0))
        .resolution(Hertz(RES))
        .alternation(Hertz(20_000.0), Hertz(500.0), 5)
        .build()
        .unwrap()
}

/// Synthesizes the campaign: a strong carrier at 100 kHz whose h = ±1, ±3
/// side-bands move with each spectrum's f_alt, plus a fixed spur at
/// 230 kHz that does not move (and so must not win either direction).
/// `keep` truncates to the first `keep` spectra — a degraded campaign the
/// way the runner degrades (later alternation frequencies dropped).
fn campaign(keep: usize) -> CampaignSpectra {
    let config = config();
    let bins = config.bins();
    let spectra: Vec<Spectrum> = config
        .alternation_frequencies()
        .iter()
        .take(keep)
        .map(|f_alt| {
            let mut p = vec![1e-14; bins];
            p[(F_CARRIER / RES) as usize] = 1e-10;
            p[(F_SPUR / RES) as usize] = 5e-12;
            for h in SIDE_HARMONICS {
                let b = ((F_CARRIER + f64::from(h) * f_alt.hz()) / RES).round() as i64;
                if (0..bins as i64).contains(&b) {
                    p[b as usize] = 2e-12;
                }
            }
            Spectrum::new(Hertz(0.0), Hertz(RES), p).unwrap()
        })
        .collect();
    campaign_from_spectra(config, spectra).unwrap()
}

/// The carrier frequency at the argmax bin of the trace for harmonic `h`.
fn forward_peak_carrier(campaign: &CampaignSpectra, h: i32) -> Hertz {
    let traces = all_harmonic_scores(campaign, 5, &HeuristicConfig::default());
    let trace = traces
        .iter()
        .find(|t| t.harmonic() == h)
        .unwrap_or_else(|| panic!("no trace for h = {h}"));
    let (best, _) = trace
        .scores()
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .unwrap();
    trace.frequency_at(best)
}

/// Asserts that, for every synthesized harmonic, working forward (score
/// the carrier grid) and backward (attribute the observed side-band peak)
/// lands on the same `(h, f_c)`.
fn assert_agreement(campaign: &CampaignSpectra) {
    let n = campaign.len();
    let f_alt1 = campaign.spectra()[0].f_alt.hz();
    for h in SIDE_HARMONICS {
        let forward = forward_peak_carrier(campaign, h);
        assert!(
            (forward.hz() - F_CARRIER).abs() <= TOL,
            "forward peak for h = {h} at {forward}, expected ~100 kHz (n = {n})"
        );
        // The side-band this harmonic actually produced in spectrum 0.
        let f_peak = Hertz(F_CARRIER + f64::from(h) * f_alt1);
        let ranked = attribute_peak(campaign, f_peak);
        let best = ranked.first().unwrap_or_else(|| {
            panic!("no attribution for the h = {h} side-band at {f_peak} (n = {n})")
        });
        assert_eq!(
            best.harmonic, h,
            "inverse harmonic disagrees for peak {f_peak} (n = {n}): {ranked:?}"
        );
        assert!(
            (best.carrier.hz() - forward.hz()).abs() <= TOL,
            "h = {h}: inverse carrier {} vs forward {} (n = {n})",
            best.carrier,
            forward
        );
        assert_eq!(best.n_spectra, n, "denominator must be the campaign size");
        assert_eq!(
            best.consistent_spectra, n,
            "every surviving spectrum shows the shifted peak (n = {n}): {best:?}"
        );
    }
}

#[test]
fn forward_and_inverse_agree_on_full_campaign() {
    let c = campaign(5);
    assert!(!c.is_degraded());
    assert_agreement(&c);
}

#[test]
fn forward_and_inverse_agree_on_degraded_campaigns() {
    for keep in [3usize, 4] {
        let c = campaign(keep);
        assert_eq!(c.len(), keep);
        assert_agreement(&c);
    }
}
