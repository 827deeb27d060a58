//! The FASE heuristic carrier-likelihood function (paper §2.4).
//!
//! For harmonic `h` of the alternation frequency, the score at candidate
//! carrier frequency `f` is
//!
//! ```text
//! F_h(f)   = Π_i F_{i,h}(f)                                      (Eq. 1)
//! F_{i,h}(f) = SP_i(f + h·f_alt_i) / mean_{j≠i} SP_j(f + h·f_alt_i)   (Eq. 2)
//! ```
//!
//! The numerator reads spectrum `i` at its own shifted frequency; the
//! denominator reads every *other* spectrum at that **same** physical
//! frequency. A side-band that moves with `f_alt` is strong in spectrum `i`
//! there but weak in the others (their side-bands sit `f_Δ` away), so the
//! sub-score is ≫ 1; a signal that stays put is equally strong in all
//! spectra and normalizes to ≈ 1 — that is how AM radio and unmodulated
//! spurs are rejected. Only harmonic `h` itself aligns under this shift:
//! the other side-band harmonics move by `2f_Δ, 3f_Δ, …` and do not stack
//! (§2.3).

use crate::config::CampaignConfig;
use crate::par::par_map;
use crate::spectra::CampaignSpectra;
use fase_dsp::units::bin_round;
use fase_dsp::{Hertz, Spectrum};

/// Stabilizing floor added to numerator and denominator, expressed as a
/// fraction of the spectrum's median bin power.
const FLOOR_FRACTION: f64 = 0.1;

/// A sub-score above this ratio counts as one spectrum "supporting" the
/// candidate carrier. The detector later requires a minimum number of
/// supporting spectra, so one lone coincidence (a spike that a single
/// shifted lookup happens to graze) cannot fake a carrier.
const SUPPORT_RATIO: f64 = 2.0;

/// Configuration of the heuristic evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeuristicConfig {
    /// Half-width (in bins) of the windowed-max applied to each spectrum
    /// before the shifted lookup. Absorbs residual alternation-frequency
    /// calibration error and side-band line width.
    pub search_bins: usize,
}

impl Default for HeuristicConfig {
    fn default() -> HeuristicConfig {
        HeuristicConfig { search_bins: 3 }
    }
}

/// The heuristic score `F_h(f)` evaluated on the campaign's frequency grid.
///
/// # Examples
///
/// ```
/// use fase_core::heuristic::{campaign_from_spectra, harmonic_scores, HeuristicConfig};
/// use fase_core::CampaignConfig;
/// use fase_dsp::{Hertz, Spectrum};
/// let config = CampaignConfig::builder()
///     .band(Hertz(0.0), Hertz(50_000.0))
///     .resolution(Hertz(100.0))
///     .alternation(Hertz(10_000.0), Hertz(500.0), 2)
///     .build()?;
/// let flat = Spectrum::new(Hertz(0.0), Hertz(100.0), vec![1e-14; config.bins()])?;
/// let campaign = campaign_from_spectra(config, vec![flat.clone(), flat])?;
/// let trace = harmonic_scores(&campaign, 1, &HeuristicConfig::default());
/// // Identical spectra: every score normalizes to 1.
/// assert!(trace.scores().iter().all(|&s| (s - 1.0).abs() < 1e-9));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreTrace {
    harmonic: i32,
    start: Hertz,
    resolution: Hertz,
    scores: Vec<f64>,
    /// Per-bin count of spectra whose sub-score exceeded the support ratio.
    support: Vec<u8>,
    n_spectra: usize,
}

impl ScoreTrace {
    /// The harmonic `h` this trace was computed for.
    pub fn harmonic(&self) -> i32 {
        self.harmonic
    }

    /// Frequency of bin 0.
    pub fn start(&self) -> Hertz {
        self.start
    }

    /// Bin spacing.
    pub fn resolution(&self) -> Hertz {
        self.resolution
    }

    /// Score values, one per candidate carrier frequency.
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// Number of candidate frequencies.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// True if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// Frequency of bin `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn frequency_at(&self, index: usize) -> Hertz {
        assert!(index < self.scores.len(), "score index out of range");
        self.start + self.resolution * index as f64
    }

    /// Score at the bin nearest to frequency `f`, or `None` outside the
    /// trace.
    pub fn score_at(&self, f: Hertz) -> Option<f64> {
        Some(self.scores[self.bin_of(f)?])
    }

    /// Number of supporting spectra per bin (sub-score above the support
    /// ratio).
    pub fn support(&self) -> &[u8] {
        &self.support
    }

    /// Supporting-spectra count at the bin nearest to `f`.
    pub fn support_at(&self, f: Hertz) -> Option<u8> {
        Some(self.support[self.bin_of(f)?])
    }

    /// Number of spectra in the campaign this trace was computed from.
    pub fn n_spectra(&self) -> usize {
        self.n_spectra
    }

    fn bin_of(&self, f: Hertz) -> Option<usize> {
        let raw = (f - self.start) / self.resolution;
        if raw < -0.5 || raw > self.scores.len() as f64 - 0.5 {
            return None;
        }
        let i = raw.round().max(0.0) as usize;
        (i < self.scores.len()).then_some(i)
    }
}

/// Harmonic-independent precompute shared by every `F_h` evaluation: each
/// spectrum's Eq. 2 sub-score at every bin.
///
/// A sub-score depends only on the spectrum and the physical bin, never on
/// the harmonic, so computing the rows once leaves each harmonic a shifted
/// product over them: the dominant redundant work of the scoring stage
/// (two divisions per bin, spectrum and harmonic) happens once.
#[derive(Debug)]
struct ScoreContext {
    /// Per-spectrum Eq. 2 sub-scores: the windowed-max, floored power over
    /// the mean of the other spectra's at the same bin.
    sub: Vec<Vec<f64>>,
    /// Alternation frequency of each spectrum, in bins per harmonic.
    f_alt_bins: Vec<f64>,
    start: Hertz,
    resolution: Hertz,
    n_spectra: usize,
}

/// Half-width of the windowed-max that scoring `spectra` applies, and
/// whether it had to be reduced from the configured `search_bins`.
///
/// The search window must stay below the f_Δ spacing, or a neighbour
/// spectrum's own side-band would leak into the denominator lookup. A
/// reduction to zero (`f_Δ < 1.5 × resolution`) collapses the windowed-max
/// to a point lookup and loses all calibration tolerance.
pub(crate) fn search_window(spectra: &CampaignSpectra, config: &HeuristicConfig) -> (usize, bool) {
    let first = spectra.spectrum(0);
    match bin_round(spectra.config().f_delta() / first.resolution(), first.len()) {
        Some(delta_bins) => {
            let max_search = delta_bins.saturating_sub(1) / 2;
            (
                config.search_bins.min(max_search),
                config.search_bins > max_search,
            )
        }
        // f_Δ at or beyond the band width: adjacent spectra cannot leak
        // into any in-band lookup, so the configured window stands.
        None => (config.search_bins, false),
    }
}

impl ScoreContext {
    fn new(spectra: &CampaignSpectra, config: &HeuristicConfig) -> ScoreContext {
        let n_spectra = spectra.len();
        let first = spectra.spectrum(0);
        let resolution = first.resolution();
        let floored = floored_rows(spectra, config);
        let column_sum = column_sums(&floored);
        let sub = floored
            .iter()
            .map(|row| {
                row.iter()
                    .zip(&column_sum)
                    .map(|(&own, &sum)| own / ((sum - own) / (n_spectra - 1) as f64))
                    .collect()
            })
            .collect();
        let f_alt_bins = spectra
            .spectra()
            .iter()
            .map(|s| s.f_alt.hz() / resolution.hz())
            .collect();
        ScoreContext {
            sub,
            f_alt_bins,
            start: first.start(),
            resolution,
            n_spectra,
        }
    }

    /// Evaluates `F_h(f)` over the whole band for one harmonic: bin `b`
    /// multiplies, spectra in ascending order, each spectrum's sub-score at
    /// `b + shift_i`, where `shift_i = round(h · f_alt_i / f_res)`. A lookup
    /// off the band contributes nothing, and a bin with fewer than two
    /// lookups in band keeps score 1 and support 0.
    fn harmonic(&self, h: i32) -> ScoreTrace {
        let bins = self.sub.first().map_or(0, Vec::len);
        let mut scores = vec![1.0f64; bins];
        let mut support = vec![0u8; bins];
        let mut lookups = vec![0u32; bins];
        for (&fb, row) in self.f_alt_bins.iter().zip(&self.sub) {
            let shift = (h as f64 * fb).round() as i64;
            // The bins `b` whose lookup `b + shift` lands in band.
            let lo = (-shift).clamp(0, bins as i64) as usize;
            let hi = (bins as i64 - shift).clamp(0, bins as i64) as usize;
            if lo >= hi {
                continue;
            }
            let looked_up = &row[(lo as i64 + shift) as usize..(hi as i64 + shift) as usize];
            for (b, &sub) in (lo..hi).zip(looked_up) {
                scores[b] *= sub;
                lookups[b] += 1;
                support[b] += u8::from(sub > SUPPORT_RATIO);
            }
        }
        for ((score, count), n) in scores.iter_mut().zip(&mut support).zip(&lookups) {
            if *n < 2 {
                *score = 1.0;
                *count = 0;
            }
        }
        ScoreTrace {
            harmonic: h,
            start: self.start,
            resolution: self.resolution,
            scores,
            support,
            n_spectra: self.n_spectra,
        }
    }
}

/// Each spectrum's windowed-max powers with its stabilizing floor added.
fn floored_rows(spectra: &CampaignSpectra, config: &HeuristicConfig) -> Vec<Vec<f64>> {
    let (search, _) = search_window(spectra, config);
    (0..spectra.len())
        .map(|i| {
            let floor =
                (spectra.spectrum(i).median_power() * FLOOR_FRACTION).max(f64::MIN_POSITIVE);
            let mut maxed = windowed_max(spectra.spectrum(i).powers(), search);
            for v in &mut maxed {
                *v += floor;
            }
            maxed
        })
        .collect()
}

/// Per-bin sum of `rows`, added in row order.
fn column_sums(rows: &[Vec<f64>]) -> Vec<f64> {
    let mut column_sum = vec![0.0f64; rows.first().map_or(0, Vec::len)];
    for row in rows {
        for (acc, v) in column_sum.iter_mut().zip(row) {
            *acc += v;
        }
    }
    column_sum
}

/// Computes `F_h(f)` for one harmonic across the whole campaign band.
///
/// Shifted lookups that fall outside the measured band contribute a neutral
/// sub-score of 1 — the paper's "obscured side-band" behaviour: missing
/// evidence weakens but does not destroy a detection.
pub fn harmonic_scores(spectra: &CampaignSpectra, h: i32, config: &HeuristicConfig) -> ScoreTrace {
    ScoreContext::new(spectra, config).harmonic(h)
}

/// Computes score traces for every harmonic `±1..=±max_harmonic`.
///
/// The harmonic-independent precompute is built once and shared; the
/// per-harmonic evaluations then run through [`par_map`], inline when the
/// caller leads a capture pool. Each trace depends only on its harmonic,
/// so the result is identical to the sequential sweep.
pub fn all_harmonic_scores(
    spectra: &CampaignSpectra,
    max_harmonic: u32,
    config: &HeuristicConfig,
) -> Vec<ScoreTrace> {
    let ctx = ScoreContext::new(spectra, config);
    let harmonics: Vec<i32> = (1..=max_harmonic as i32).flat_map(|k| [k, -k]).collect();
    par_map(&harmonics, |&h| ctx.harmonic(h))
}

/// Sliding maximum with half-width `w` via a monotonically decreasing
/// index deque — O(n) regardless of window size. Non-finite samples
/// (NaN/±Inf from a poisoned spectrum) are never candidates: a window
/// containing only non-finite values yields 0.0, so downstream ratios see
/// "no power" rather than NaN.
fn windowed_max(xs: &[f64], w: usize) -> Vec<f64> {
    if w == 0 {
        return xs
            .iter()
            .map(|&x| if x.is_finite() { x } else { 0.0 })
            .collect();
    }
    let n = xs.len();
    let mut out = Vec::with_capacity(n);
    let mut deque: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    // Emitting out[i] once the window's right edge j = i + w has been
    // pushed keeps the deque front the maximum of xs[i−w ..= i+w].
    for j in 0..n + w {
        if j < n && xs[j].is_finite() {
            while deque.back().is_some_and(|&b| xs[b] <= xs[j]) {
                deque.pop_back();
            }
            deque.push_back(j);
        }
        if j >= w {
            let i = j - w;
            while deque.front().is_some_and(|&f| f + w < i) {
                deque.pop_front();
            }
            out.push(deque.front().map_or(0.0, |&f| xs[f]));
        }
    }
    out
}

/// Builds a [`Spectrum`]-backed campaign from raw per-alternation spectra —
/// a convenience for tests and synthetic pipelines.
///
/// # Errors
///
/// Propagates [`CampaignSpectra::new`] validation failures.
pub fn campaign_from_spectra(
    config: CampaignConfig,
    spectra: Vec<Spectrum>,
) -> Result<CampaignSpectra, crate::error::FaseError> {
    let labeled = config
        .alternation_frequencies()
        .into_iter()
        .zip(spectra)
        .map(|(f_alt, spectrum)| crate::spectra::LabeledSpectrum { f_alt, spectrum })
        .collect();
    CampaignSpectra::new(config, labeled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CampaignConfig;

    /// Builds a synthetic campaign: flat noise floor at `floor` with, for
    /// each f_alt_i, side-band spikes at `fc ± f_alt_i` (if `modulated`),
    /// plus optional fixed spurs that do NOT move with f_alt.
    fn synthetic_campaign(fc: f64, modulated: bool, spur_at: Option<f64>) -> CampaignSpectra {
        let config = CampaignConfig::builder()
            .band(Hertz(0.0), Hertz(100_000.0))
            .resolution(Hertz(100.0))
            .alternation(Hertz(20_000.0), Hertz(500.0), 5)
            .build()
            .unwrap();
        let bins = config.bins();
        let res = 100.0;
        let spectra: Vec<Spectrum> = config
            .alternation_frequencies()
            .iter()
            .map(|f_alt| {
                let mut p = vec![1e-14; bins];
                // Carrier always present.
                p[(fc / res) as usize] = 1e-10;
                if modulated {
                    let up = ((fc + f_alt.hz()) / res).round() as usize;
                    let dn = ((fc - f_alt.hz()) / res).round() as usize;
                    p[up] = 2e-12;
                    p[dn] = 2e-12;
                }
                if let Some(s) = spur_at {
                    p[(s / res) as usize] = 5e-11;
                }
                Spectrum::new(Hertz(0.0), Hertz(100.0), p).unwrap()
            })
            .collect();
        campaign_from_spectra(config, spectra).unwrap()
    }

    #[test]
    fn modulated_carrier_scores_high_at_fc() {
        let fc = 50_000.0;
        let campaign = synthetic_campaign(fc, true, None);
        let cfg = HeuristicConfig::default();
        for h in [1, -1] {
            let trace = harmonic_scores(&campaign, h, &cfg);
            let at_fc = trace.score_at(Hertz(fc)).unwrap();
            assert!(at_fc > 100.0, "h={h}: score at fc = {at_fc}");
            // Scores away from the carrier stay near 1.
            let away = trace.score_at(Hertz(fc + 10_000.0)).unwrap();
            assert!(away < 5.0, "h={h}: background score {away}");
        }
    }

    #[test]
    fn unmodulated_carrier_scores_flat() {
        let fc = 50_000.0;
        let campaign = synthetic_campaign(fc, false, None);
        let cfg = HeuristicConfig::default();
        let trace = harmonic_scores(&campaign, 1, &cfg);
        let max = trace.scores().iter().cloned().fold(0.0, f64::max);
        assert!(max < 10.0, "unmodulated campaign produced score {max}");
    }

    #[test]
    fn stationary_spur_is_rejected() {
        // A strong spur at a fixed frequency: its sub-scores normalize to 1.
        let fc = 50_000.0;
        let campaign = synthetic_campaign(fc, true, Some(30_000.0));
        let cfg = HeuristicConfig::default();
        let trace = harmonic_scores(&campaign, 1, &cfg);
        // Candidate carrier at spur − f_alt1 would be implicated only if
        // the spur moved; check the region around (30 kHz − 20 kHz)=10 kHz
        // ± a few kHz stays low.
        for f in (8_000..12_000).step_by(200) {
            let s = trace.score_at(Hertz(f as f64)).unwrap();
            assert!(s < 10.0, "spur leaked into score at {f}: {s}");
        }
        // The real carrier still stands out.
        assert!(trace.score_at(Hertz(fc)).unwrap() > 100.0);
    }

    #[test]
    fn only_matching_harmonic_aligns() {
        // Side-bands at ±1·f_alt only: the h=2 trace must stay flat at fc.
        let fc = 50_000.0;
        let campaign = synthetic_campaign(fc, true, None);
        let cfg = HeuristicConfig::default();
        let h2 = harmonic_scores(&campaign, 2, &cfg);
        let s = h2.score_at(Hertz(fc)).unwrap();
        assert!(s < 10.0, "h=2 should not align: {s}");
    }

    #[test]
    fn obscured_sideband_weakens_but_detects() {
        // Blot out the side-band in two of the five spectra with a strong
        // unrelated signal.
        let fc = 50_000.0;
        let config = CampaignConfig::builder()
            .band(Hertz(0.0), Hertz(100_000.0))
            .resolution(Hertz(100.0))
            .alternation(Hertz(20_000.0), Hertz(500.0), 5)
            .build()
            .unwrap();
        let bins = config.bins();
        let res = 100.0;
        // A strong stationary interferer sits exactly where spectrum 0's
        // upper side-band lands (fc + f_alt1), in EVERY spectrum — spectrum
        // 0's side-band is "buried" and its sub-score normalizes to ≈ 1.
        let interferer: f64 = fc + 20_000.0;
        let spectra: Vec<Spectrum> = config
            .alternation_frequencies()
            .iter()
            .map(|f_alt| {
                let mut p = vec![1e-14; bins];
                p[(fc / res) as usize] = 1e-10;
                p[(interferer / res).round() as usize] = 1e-9;
                let up = ((fc + f_alt.hz()) / res).round() as usize;
                let dn = ((fc - f_alt.hz()) / res).round() as usize;
                // Side-band weaker than the interferer at the collision bin.
                if p[up] < 2e-12 {
                    p[up] = 2e-12;
                }
                p[dn] = 2e-12;
                Spectrum::new(Hertz(0.0), Hertz(100.0), p).unwrap()
            })
            .collect();
        let campaign = campaign_from_spectra(config, spectra).unwrap();
        let trace = harmonic_scores(&campaign, 1, &HeuristicConfig::default());
        let s = trace.score_at(Hertz(fc)).unwrap();
        // Weakened relative to the clean case but still far above baseline.
        assert!(s > 20.0, "obscured campaign score too low: {s}");
        let clean = harmonic_scores(
            &synthetic_campaign(fc, true, None),
            1,
            &HeuristicConfig::default(),
        );
        assert!(clean.score_at(Hertz(fc)).unwrap() > s);
    }

    #[test]
    fn all_harmonics_produces_both_signs() {
        let campaign = synthetic_campaign(50_000.0, true, None);
        let traces = all_harmonic_scores(&campaign, 3, &HeuristicConfig::default());
        assert_eq!(traces.len(), 6);
        let hs: Vec<i32> = traces.iter().map(|t| t.harmonic()).collect();
        assert_eq!(hs, vec![1, -1, 2, -2, 3, -3]);
    }

    #[test]
    fn windowed_max_basics() {
        assert_eq!(windowed_max(&[1.0, 5.0, 2.0], 1), vec![5.0, 5.0, 5.0]);
        assert_eq!(windowed_max(&[1.0, 5.0, 2.0], 0), vec![1.0, 5.0, 2.0]);
        let xs = [0.0, 1.0, 0.0, 0.0, 7.0];
        assert_eq!(windowed_max(&xs, 2), vec![1.0, 1.0, 7.0, 7.0, 7.0]);
    }

    #[test]
    fn windowed_max_matches_naive_reference() {
        use fase_dsp::rng::{Rng, SmallRng};
        let mut rng = SmallRng::seed_from_u64(0xFA5E);
        for (n, w) in [(1usize, 3usize), (7, 2), (64, 1), (129, 5), (500, 17)] {
            let xs: Vec<f64> = (0..n).map(|_| rng.gen_f64()).collect();
            let naive: Vec<f64> = (0..n)
                .map(|i| {
                    let lo = i.saturating_sub(w);
                    let hi = (i + w).min(n - 1);
                    xs[lo..=hi].iter().copied().fold(f64::MIN, f64::max)
                })
                .collect();
            assert_eq!(windowed_max(&xs, w), naive, "n={n} w={w}");
        }
    }

    #[test]
    fn windowed_max_skips_non_finite() {
        let xs = [1.0, f64::NAN, 3.0];
        assert_eq!(windowed_max(&xs, 1), vec![1.0, 3.0, 3.0]);
        assert_eq!(windowed_max(&xs, 0), vec![1.0, 0.0, 3.0]);
        let inf = [f64::INFINITY, 2.0, f64::NEG_INFINITY];
        assert_eq!(windowed_max(&inf, 1), vec![2.0, 2.0, 2.0]);
        // A window with no finite values emits zero power, not NaN.
        assert_eq!(windowed_max(&[f64::NAN; 3], 1), vec![0.0, 0.0, 0.0]);
    }

    /// Every 1- and 2-drop subset of a 5-f_alt campaign, in order.
    fn degraded_subsets() -> Vec<Vec<usize>> {
        let mut subsets: Vec<Vec<usize>> = Vec::new();
        for d in 0..5usize {
            subsets.push((0..5).filter(|&i| i != d).collect());
        }
        for a in 0..5usize {
            for b in a + 1..5 {
                subsets.push((0..5).filter(|&i| i != a && i != b).collect());
            }
        }
        assert_eq!(subsets.len(), 15);
        subsets
    }

    fn degraded(full: &CampaignSpectra, keep: &[usize]) -> CampaignSpectra {
        let spectra: Vec<crate::spectra::LabeledSpectrum> =
            keep.iter().map(|&i| full.spectra()[i].clone()).collect();
        let campaign = CampaignSpectra::new(full.config().clone(), spectra).unwrap();
        assert!(campaign.is_degraded());
        campaign
    }

    /// Degraded-mode property, part 1: in a campaign holding only
    /// stationary signals (unmodulated carrier + fixed spur), dropping any
    /// 1 or 2 of the 5 spectra — the Eq. 1 product renormalizing over the
    /// survivors — must leave every score ≈ 1: degradation must never
    /// *promote* a stationary interferer.
    #[test]
    fn degraded_subsets_never_promote_stationary_signals() {
        let full = synthetic_campaign(50_000.0, false, Some(30_000.0));
        let cfg = HeuristicConfig::default();
        for keep in degraded_subsets() {
            let campaign = degraded(&full, &keep);
            for h in [1, -1, 2] {
                let trace = harmonic_scores(&campaign, h, &cfg);
                let max = trace.scores().iter().cloned().fold(0.0, f64::max);
                assert!(max < 10.0, "keep {keep:?} h={h}: score {max}");
            }
        }
    }

    /// Degraded-mode property, part 2: with a genuinely modulated carrier
    /// planted, every 1- and 2-drop subset must still flag it — the carrier
    /// stays the trace's top score by a wide margin, and the stationary
    /// spur's own frequency never scores as a carrier.
    #[test]
    fn degraded_subsets_still_flag_planted_carrier() {
        let fc = 50_000.0;
        let full = synthetic_campaign(fc, true, Some(30_000.0));
        let cfg = HeuristicConfig::default();
        for keep in degraded_subsets() {
            let campaign = degraded(&full, &keep);
            let trace = harmonic_scores(&campaign, 1, &cfg);
            let carrier = trace.score_at(Hertz(fc)).unwrap();
            assert!(carrier > 100.0, "keep {keep:?}: carrier score {carrier}");
            // The trace's top score must sit at the carrier — within the
            // windowed-max plateau (search half-width of bins) around it.
            let top = fase_dsp::stats::argmax(trace.scores()).unwrap();
            let top_f = trace.frequency_at(top);
            assert!(
                (top_f - Hertz(fc)).hz().abs() <= 300.0,
                "keep {keep:?}: top score at {top_f}, not the carrier"
            );
            // The product over survivors must still dominate any
            // side-band self-alias ghost (which gets only one factor).
            let peak = trace.scores()[top];
            let second = trace
                .scores()
                .iter()
                .enumerate()
                .filter(|(i, _)| i.abs_diff(top) > 5)
                .map(|(_, &s)| s)
                .fold(0.0, f64::max);
            assert!(
                peak > 10.0 * second,
                "keep {keep:?}: carrier {peak} vs runner-up {second}"
            );
            let at_spur = trace.score_at(Hertz(30_000.0)).unwrap();
            assert!(at_spur < 10.0, "keep {keep:?}: spur promoted: {at_spur}");
        }
    }

    /// Analyzes `campaign` on a detached recorder and returns its metrics.
    fn analyze_metrics(campaign: &CampaignSpectra) -> fase_obs::Snapshot {
        let rec = fase_obs::Recorder::detached();
        crate::Fase::default()
            .with_recorder(rec.clone())
            .analyze(campaign)
            .unwrap();
        rec.snapshot()
    }

    #[test]
    fn search_window_clamp_is_recorded_not_silent() {
        // Default campaign: f_Δ = 500 Hz at 100 Hz resolution allows a
        // half-width of 2, so the configured 3 is reduced — a counter, but
        // no collapse warning.
        let campaign = synthetic_campaign(50_000.0, true, None);
        let snap = analyze_metrics(&campaign);
        assert_eq!(
            snap.counters.get("core.heuristic.search_window_clamped"),
            Some(&1),
            "{:?}",
            snap.counters
        );
        assert!(!snap
            .counters
            .contains_key("warn.core.heuristic.search_window_collapsed"));
        assert!(snap.counters.get("core.heuristic.bins_scored").copied() > Some(0));
        assert_eq!(
            snap.counters.get("core.heuristic.windowed_max_passes"),
            Some(&5)
        );
    }

    #[test]
    fn point_lookup_collapse_raises_a_warning() {
        // f_Δ = 100 Hz at 100 Hz resolution: delta_bins = 1, so the search
        // window collapses to a point lookup and the warning metric fires.
        let config = CampaignConfig::builder()
            .band(Hertz(0.0), Hertz(100_000.0))
            .resolution(Hertz(100.0))
            .alternation(Hertz(20_000.0), Hertz(100.0), 5)
            .build()
            .unwrap();
        let bins = config.bins();
        let spectra: Vec<Spectrum> = (0..5)
            .map(|_| Spectrum::new(Hertz(0.0), Hertz(100.0), vec![1e-14; bins]).unwrap())
            .collect();
        let campaign = campaign_from_spectra(config, spectra).unwrap();
        let snap = analyze_metrics(&campaign);
        assert_eq!(
            snap.counters
                .get("warn.core.heuristic.search_window_collapsed"),
            Some(&1),
            "{:?}",
            snap.counters
        );
    }

    #[test]
    fn parallel_sweep_matches_sequential_scores() {
        let campaign = synthetic_campaign(50_000.0, true, Some(30_000.0));
        let cfg = HeuristicConfig::default();
        for t in &all_harmonic_scores(&campaign, 5, &cfg) {
            assert_eq!(*t, harmonic_scores(&campaign, t.harmonic(), &cfg));
        }
    }

    /// The per-bin Eq. 1/Eq. 2 loop the sub-score rows replaced: every
    /// bin divides afresh for each spectrum and harmonic.
    fn reference_harmonic(
        spectra: &CampaignSpectra,
        h: i32,
        config: &HeuristicConfig,
    ) -> ScoreTrace {
        let floored = floored_rows(spectra, config);
        let column_sum = column_sums(&floored);
        let n_spectra = spectra.len();
        let first = spectra.spectrum(0);
        let bins = column_sum.len();
        let shifts: Vec<i64> = spectra
            .spectra()
            .iter()
            .map(|s| (h as f64 * (s.f_alt.hz() / first.resolution().hz())).round() as i64)
            .collect();
        let mut scores = vec![1.0f64; bins];
        let mut support = vec![0u8; bins];
        for b in 0..bins {
            let mut f = 1.0;
            let mut contributions = 0usize;
            let mut supporters = 0u8;
            for (shift, row) in shifts.iter().zip(&floored) {
                let idx = b as i64 + shift;
                if idx < 0 || idx >= bins as i64 {
                    continue;
                }
                let idx = idx as usize;
                let own = row[idx];
                let others = (column_sum[idx] - own) / (n_spectra - 1) as f64;
                let sub = own / others;
                f *= sub;
                contributions += 1;
                if sub > SUPPORT_RATIO {
                    supporters += 1;
                }
            }
            if contributions >= 2 {
                scores[b] = f;
                support[b] = supporters;
            }
        }
        ScoreTrace {
            harmonic: h,
            start: first.start(),
            resolution: first.resolution(),
            scores,
            support,
            n_spectra,
        }
    }

    #[test]
    fn sub_score_rows_match_the_per_bin_loop_bit_for_bit() {
        use fase_dsp::rng::{Rng, SmallRng};
        let mut rng = SmallRng::seed_from_u64(0xE92);
        // Alternation frequencies up to past the band width: the high
        // harmonics of the first campaign shift some lookups off the band,
        // and every lookup of the last one lands off it.
        for (bins, f_alt1, n_alts) in [
            (301usize, 2_000.0, 5usize),
            (120, 5_000.0, 3),
            (64, 9_000.0, 2),
        ] {
            let band_hi = (bins - 1) as f64 * 100.0;
            let config = CampaignConfig::builder()
                .band(Hertz(0.0), Hertz(band_hi))
                .resolution(Hertz(100.0))
                .alternation(Hertz(f_alt1), Hertz(500.0), n_alts)
                .build()
                .unwrap();
            let spectra: Vec<Spectrum> = (0..n_alts)
                .map(|_| {
                    let powers = (0..bins)
                        .map(|_| 1e-14 * (1.0 + 1e3 * rng.gen_f64().powi(8)))
                        .collect();
                    Spectrum::new(Hertz(0.0), Hertz(100.0), powers).unwrap()
                })
                .collect();
            let campaign = campaign_from_spectra(config, spectra).unwrap();
            let cfg = HeuristicConfig::default();
            let max_harmonic = 5;
            let traces = all_harmonic_scores(&campaign, max_harmonic, &cfg);
            assert_eq!(traces.len(), 2 * max_harmonic as usize);
            for trace in &traces {
                let reference = reference_harmonic(&campaign, trace.harmonic(), &cfg);
                let bits =
                    |t: &ScoreTrace| t.scores().iter().map(|s| s.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(trace),
                    bits(&reference),
                    "{bins} bins, h={}",
                    trace.harmonic()
                );
                assert_eq!(
                    trace.support(),
                    reference.support(),
                    "{bins} bins, h={}",
                    trace.harmonic()
                );
                assert_eq!(
                    (trace.start(), trace.resolution(), trace.n_spectra()),
                    (
                        reference.start(),
                        reference.resolution(),
                        reference.n_spectra()
                    )
                );
            }
            // Bins with fewer than two lookups in band keep the neutral
            // score and no support.
            let neutral = traces
                .iter()
                .flat_map(|t| t.scores().iter().zip(t.support()));
            assert!(neutral.filter(|&(&s, &n)| s == 1.0 && n == 0).count() > 0);
        }
    }

    #[test]
    fn score_trace_accessors() {
        let campaign = synthetic_campaign(50_000.0, true, None);
        let trace = harmonic_scores(&campaign, 1, &HeuristicConfig::default());
        assert_eq!(trace.harmonic(), 1);
        assert_eq!(trace.resolution(), Hertz(100.0));
        assert_eq!(trace.frequency_at(10), Hertz(1000.0));
        assert!(trace.score_at(Hertz(-200.0)).is_none());
        // Within half a bin of bin 0 still resolves.
        assert!(trace.score_at(Hertz(-5.0)).is_some());
        assert!(trace.support_at(Hertz(50_000.0)).unwrap() >= 3);
        assert!(trace.score_at(Hertz(1e9)).is_none());
        assert!(!trace.is_empty());
    }
}
