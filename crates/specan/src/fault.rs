//! Deterministic capture-impairment injection.
//!
//! Real FASE campaigns (paper §3) run for hours against a hostile RF
//! environment: the ADC overloads on AM broadcast peaks, sweep segments
//! drop when the analyzer loses its trigger, wideband bursts from nearby
//! equipment land mid-capture, the front-end gain glitches, and whole
//! measurement tasks occasionally die. A [`FaultPlan`] reproduces these
//! impairments *deterministically* — every fault is a pure function of the
//! plan's seed and the capture's `(f_alt, segment, average, attempt)`
//! coordinates — so campaigns remain bit-identical for any worker-thread
//! count and every injected fault can be asserted on by tests.

use fase_dsp::noise::complex_normal;
use fase_dsp::rng::{mix_seed, Rng, SmallRng};
use fase_dsp::Complex64;

/// One class of capture impairment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// ADC overload: I/Q samples clip to a fraction of the capture's peak
    /// amplitude, spraying intermodulation products across the spectrum.
    AdcClip,
    /// A stretch of the capture drops to zero (lost trigger / transfer
    /// underrun).
    SegmentDropout,
    /// A transient wideband interference burst adds strong white noise
    /// over part of the capture.
    InterferenceBurst,
    /// The front-end gain jumps for part of the capture.
    GainGlitch,
    /// The capture task fails outright and must be retried.
    TaskFailure,
}

impl FaultKind {
    /// Every fault class, in draw order.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::AdcClip,
        FaultKind::SegmentDropout,
        FaultKind::InterferenceBurst,
        FaultKind::GainGlitch,
        FaultKind::TaskFailure,
    ];

    /// Stable kebab-case identifier, used as the
    /// [`fase_core::FaultRecord`] tag.
    pub fn tag(self) -> &'static str {
        match self {
            FaultKind::AdcClip => "adc-clip",
            FaultKind::SegmentDropout => "segment-dropout",
            FaultKind::InterferenceBurst => "interference-burst",
            FaultKind::GainGlitch => "gain-glitch",
            FaultKind::TaskFailure => "task-failure",
        }
    }

    /// Applies the impairment to a rendered IQ capture in place. All
    /// randomness (span position, severity) comes from `rng`, which the
    /// runner derives from the capture's coordinates — same capture, same
    /// glitch. [`FaultKind::TaskFailure`] has no waveform effect (the
    /// runner fails the task before rendering) and is a no-op here.
    pub fn apply(self, iq: &mut [Complex64], rng: &mut SmallRng) {
        if iq.is_empty() {
            return;
        }
        let n = iq.len();
        // Random sub-span of the capture, between 15% and 45% of it.
        let span = |rng: &mut SmallRng| -> (usize, usize) {
            let len = ((n as f64 * rng.gen_range(0.15, 0.45)) as usize).clamp(1, n);
            let start = (rng.gen_f64() * (n - len + 1) as f64) as usize;
            (start, (start + len).min(n))
        };
        match self {
            FaultKind::AdcClip => {
                let peak = iq
                    .iter()
                    .map(|z| z.re.abs().max(z.im.abs()))
                    .fold(0.0, f64::max);
                let limit = peak * rng.gen_range(0.05, 0.15);
                for z in iq.iter_mut() {
                    z.re = z.re.clamp(-limit, limit);
                    z.im = z.im.clamp(-limit, limit);
                }
            }
            FaultKind::SegmentDropout => {
                let (lo, hi) = span(rng);
                for z in &mut iq[lo..hi] {
                    *z = Complex64::ZERO;
                }
            }
            FaultKind::InterferenceBurst => {
                let rms = (iq.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64).sqrt();
                let sigma = rms.max(f64::MIN_POSITIVE) * rng.gen_range(20.0, 50.0);
                let (lo, hi) = span(rng);
                for z in &mut iq[lo..hi] {
                    *z += complex_normal(rng, sigma);
                }
            }
            FaultKind::GainGlitch => {
                let gain = rng.gen_range(3.0, 10.0);
                let (lo, hi) = span(rng);
                for z in &mut iq[lo..hi] {
                    *z = z.scale(gain);
                }
            }
            FaultKind::TaskFailure => {}
        }
    }
}

/// A fault pinned to specific capture coordinates (for tests and
/// reproductions). `None` coordinates match any value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ForcedFault {
    i_alt: usize,
    i_seg: Option<usize>,
    i_avg: Option<usize>,
    /// The fault fires on attempts `0..attempts`.
    attempts: u32,
    kind: FaultKind,
}

/// A deterministic, seed-derived schedule of capture impairments.
///
/// # Examples
///
/// ```
/// use fase_specan::fault::{FaultKind, FaultPlan};
/// let plan = FaultPlan::new(9)
///     .with_rate(0.01)
///     .force(0, Some(0), Some(0), 1, FaultKind::AdcClip);
/// // Forced faults fire exactly where they were pinned…
/// assert_eq!(plan.draw(0, 0, 0, 0), Some(FaultKind::AdcClip));
/// // …and the draw is a pure function of the coordinates.
/// assert_eq!(plan.draw(1, 2, 0, 0), plan.draw(1, 2, 0, 0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    /// Probability that a capture attempt suffers each fault class,
    /// drawn class by class in [`FaultKind::ALL`] order.
    rate: f64,
    forced: Vec<ForcedFault>,
}

impl FaultPlan {
    /// A plan with no random faults; add a rate or forced faults with the
    /// builder methods.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rate: 0.0,
            forced: Vec::new(),
        }
    }

    /// Sets the probability that a capture attempt suffers each fault
    /// class.
    pub fn with_rate(mut self, rate: f64) -> FaultPlan {
        self.rate = rate;
        self
    }

    /// Pins `kind` to fire at the given coordinates on attempts
    /// `0..attempts`. `None` segment/average coordinates match every
    /// segment/average of the alternation frequency.
    pub fn force(
        mut self,
        i_alt: usize,
        i_seg: Option<usize>,
        i_avg: Option<usize>,
        attempts: u32,
        kind: FaultKind,
    ) -> FaultPlan {
        self.forced.push(ForcedFault {
            i_alt,
            i_seg,
            i_avg,
            attempts,
            kind,
        });
        self
    }

    /// Makes every capture attempt at alternation index `i_alt` fail —
    /// the retry budget is always exhausted and the campaign must degrade.
    pub fn always_fail(self, i_alt: usize) -> FaultPlan {
        self.force(i_alt, None, None, u32::MAX, FaultKind::TaskFailure)
    }

    /// A canonical textual token identifying this plan for capture-cache
    /// keys. Two plans with equal tokens draw identical fault schedules at
    /// every capture coordinate, so a cached capture produced under one
    /// can stand in for the other; any difference in seed, rate, or
    /// forced faults changes the token and therefore the cache key. The
    /// rate is written once per fault class: existing cache keys hold
    /// that format.
    pub fn cache_token(&self) -> String {
        use std::fmt::Write as _;
        let rate = self.rate;
        let mut out = format!(
            "seed={:016x};rates={rate:?},{rate:?},{rate:?},{rate:?},{rate:?};forced=",
            self.seed
        );
        for f in &self.forced {
            let _ = write!(
                out,
                "[{}:{:?}:{:?}:{}:{}]",
                f.i_alt,
                f.i_seg,
                f.i_avg,
                f.attempts,
                f.kind.tag()
            );
        }
        out
    }

    /// The fault (if any) striking the capture at `(i_alt, i_seg, i_avg)`
    /// on `attempt` — a pure function of the plan and the coordinates,
    /// independent of execution order or thread count. Forced faults take
    /// precedence over random draws.
    pub fn draw(
        &self,
        i_alt: usize,
        i_seg: usize,
        i_avg: usize,
        attempt: u32,
    ) -> Option<FaultKind> {
        for f in &self.forced {
            let seg_ok = f.i_seg.is_none_or(|s| s == i_seg);
            let avg_ok = f.i_avg.is_none_or(|a| a == i_avg);
            if f.i_alt == i_alt && seg_ok && avg_ok && attempt < f.attempts {
                return Some(f.kind);
            }
        }
        let key =
            (i_alt as u64) | (i_seg as u64) << 16 | (i_avg as u64) << 32 | (attempt as u64) << 48;
        let mut rng = SmallRng::seed_from_u64(mix_seed(self.seed ^ 0xFA17_FA17_FA17_FA17, key));
        // One draw per class in `FaultKind::ALL` order, stopping at the
        // first hit: cached faulty captures were made under this schedule.
        FaultKind::ALL
            .into_iter()
            .find(|_| self.rate > 0.0 && rng.gen_f64() < self.rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_stable_and_distinct() {
        let tags: Vec<&str> = FaultKind::ALL.iter().map(|k| k.tag()).collect();
        assert_eq!(
            tags,
            vec![
                "adc-clip",
                "segment-dropout",
                "interference-burst",
                "gain-glitch",
                "task-failure"
            ]
        );
    }

    #[test]
    fn draw_is_deterministic_and_seed_sensitive() {
        let plan = FaultPlan::new(3).with_rate(0.3);
        let draws: Vec<Option<FaultKind>> =
            (0..64).map(|i| plan.draw(i % 5, i % 3, i % 4, 0)).collect();
        let again: Vec<Option<FaultKind>> =
            (0..64).map(|i| plan.draw(i % 5, i % 3, i % 4, 0)).collect();
        assert_eq!(draws, again);
        assert!(draws.iter().any(Option::is_some), "rate 0.3 drew nothing");
        let other = FaultPlan::new(4).with_rate(0.3);
        let other_draws: Vec<Option<FaultKind>> = (0..64)
            .map(|i| other.draw(i % 5, i % 3, i % 4, 0))
            .collect();
        assert_ne!(draws, other_draws, "seed did not perturb the draws");
    }

    #[test]
    fn attempts_draw_independently() {
        let plan = FaultPlan::new(11).with_rate(0.5);
        let per_attempt: Vec<Option<FaultKind>> = (0..16).map(|a| plan.draw(0, 0, 0, a)).collect();
        // With p = 0.5 per class, 16 attempts cannot plausibly all agree.
        assert!(
            per_attempt.iter().any(|d| *d != per_attempt[0]),
            "attempt index does not reach the draw"
        );
    }

    #[test]
    fn forced_faults_take_precedence_and_scope() {
        let plan = FaultPlan::new(5).force(2, Some(1), None, 2, FaultKind::GainGlitch);
        assert_eq!(plan.draw(2, 1, 0, 0), Some(FaultKind::GainGlitch));
        assert_eq!(plan.draw(2, 1, 3, 1), Some(FaultKind::GainGlitch));
        assert_eq!(plan.draw(2, 1, 0, 2), None, "attempt cap ignored");
        assert_eq!(plan.draw(2, 0, 0, 0), None, "segment scope ignored");
        assert_eq!(plan.draw(1, 1, 0, 0), None, "alternation scope ignored");
    }

    #[test]
    fn cache_token_distinguishes_plans() {
        let a = FaultPlan::new(9).with_rate(0.01);
        let b = FaultPlan::new(10).with_rate(0.01);
        let c = FaultPlan::new(9).with_rate(0.02);
        let d = FaultPlan::new(9)
            .with_rate(0.01)
            .force(0, Some(1), None, 2, FaultKind::AdcClip);
        assert_eq!(a.cache_token(), a.clone().cache_token());
        assert_ne!(a.cache_token(), b.cache_token(), "seed ignored");
        assert_ne!(a.cache_token(), c.cache_token(), "rate ignored");
        assert_ne!(a.cache_token(), d.cache_token(), "forced faults ignored");
        assert!(d.cache_token().contains("adc-clip"));
    }

    /// The schedule and the cache token are pinned to recorded values: a
    /// change to the draw loop or the token would silently change every
    /// faulty campaign or re-key every cached faulty capture.
    #[test]
    fn schedule_and_cache_token_are_pinned() {
        // One row per (i_alt, i_seg); within a row, i_avg-major groups of
        // attempts 0..3. '.' is no fault.
        const TABLE: [&str; 12] = [
            "F.. DB. .BD",
            "BCD FCF CF.",
            ".C. FCG FBF",
            "DG. CDC D..",
            "FCB GCD .FB",
            "CD. ... DDG",
            ".B. .DC BDD",
            ".CG C.F D..",
            "CDD C.. ..B",
            "C.B ..F BC.",
            "G.. CDG CD.",
            "..C DF. BC.",
        ];
        let plan = FaultPlan::new(0x5EED).with_rate(0.2);
        for (row, expected) in TABLE.iter().enumerate() {
            let (i_alt, i_seg) = (row / 3, row % 3);
            let drawn: Vec<String> = (0..3)
                .map(|i_avg| {
                    (0..3)
                        .map(|attempt| match plan.draw(i_alt, i_seg, i_avg, attempt) {
                            None => '.',
                            Some(FaultKind::AdcClip) => 'C',
                            Some(FaultKind::SegmentDropout) => 'D',
                            Some(FaultKind::InterferenceBurst) => 'B',
                            Some(FaultKind::GainGlitch) => 'G',
                            Some(FaultKind::TaskFailure) => 'F',
                        })
                        .collect()
                })
                .collect();
            assert_eq!(drawn.join(" "), *expected, "i_alt {i_alt}, i_seg {i_seg}");
        }
        let forced =
            FaultPlan::new(9)
                .with_rate(0.2)
                .force(0, Some(1), None, 2, FaultKind::AdcClip);
        assert_eq!(
            forced.cache_token(),
            "seed=0000000000000009;rates=0.2,0.2,0.2,0.2,0.2;forced=[0:Some(1):None:2:adc-clip]"
        );
        assert_eq!(
            FaultPlan::new(9).always_fail(3).cache_token(),
            "seed=0000000000000009;rates=0.0,0.0,0.0,0.0,0.0;forced=[3:None:None:4294967295:task-failure]"
        );
    }

    #[test]
    fn always_fail_never_relents() {
        let plan = FaultPlan::new(5).always_fail(3);
        for attempt in [0, 1, 7, 1000] {
            assert_eq!(plan.draw(3, 2, 1, attempt), Some(FaultKind::TaskFailure));
        }
        assert_eq!(plan.draw(2, 2, 1, 0), None);
    }

    #[test]
    fn impairments_change_the_waveform_deterministically() {
        let base: Vec<Complex64> = (0..4096)
            .map(|n| Complex64::from_polar(1.0, 0.01 * n as f64))
            .collect();
        for kind in FaultKind::ALL {
            let mut a = base.clone();
            let mut b = base.clone();
            kind.apply(&mut a, &mut SmallRng::seed_from_u64(99));
            kind.apply(&mut b, &mut SmallRng::seed_from_u64(99));
            assert_eq!(a, b, "{kind:?} not deterministic");
            if kind == FaultKind::TaskFailure {
                assert_eq!(a, base, "TaskFailure must not touch the waveform");
            } else {
                assert_ne!(a, base, "{kind:?} left the waveform untouched");
                assert!(
                    a.iter().all(|z| z.re.is_finite() && z.im.is_finite()),
                    "{kind:?} produced non-finite samples"
                );
            }
        }
    }

    #[test]
    fn dropout_zeroes_a_span_only() {
        let base: Vec<Complex64> = (0..1024).map(|_| Complex64 { re: 1.0, im: 1.0 }).collect();
        let mut iq = base.clone();
        FaultKind::SegmentDropout.apply(&mut iq, &mut SmallRng::seed_from_u64(1));
        let zeroed = iq.iter().filter(|z| z.norm_sqr() == 0.0).count();
        assert!(
            (154..=461).contains(&zeroed),
            "dropout span out of range: {zeroed}"
        );
        assert!(iq.iter().any(|z| z.norm_sqr() > 0.0));
    }
}
