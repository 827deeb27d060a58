//! Grouping detected carriers into harmonic sets (§4: "it is useful to
//! group the identified carriers into sets such that all the carriers
//! within a set occur at frequencies which appear to be multiples of one
//! another").

use crate::carrier::Carrier;
use fase_dsp::Hertz;
use std::fmt;

/// A family of carriers at (approximate) integer multiples of a common
/// fundamental — one physical periodic source.
///
/// # Examples
///
/// ```
/// use fase_core::{Carrier, Harmonic};
/// use fase_core::grouping::group_harmonic_sets;
/// use fase_dsp::{Dbm, Hertz};
/// let carrier = |f: f64| Carrier::new(
///     Hertz(f), Dbm(-110.0), Dbm(-125.0),
///     vec![Harmonic { h: 1, score: 30.0 }],
/// );
/// let sets = group_harmonic_sets(
///     &[carrier(128_000.0), carrier(256_000.0), carrier(384_000.0)],
///     0.003,
/// );
/// assert_eq!(sets.len(), 1);
/// assert_eq!(sets[0].harmonic_numbers(), vec![1, 2, 3]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HarmonicSet {
    fundamental: Hertz,
    members: Vec<Carrier>,
}

impl HarmonicSet {
    /// The inferred fundamental frequency.
    ///
    /// Note this is the greatest common divisor of the *detected* members;
    /// the physical fundamental can be lower still (the paper's refresh
    /// carrier was detected at 512 kHz multiples while near-field probing
    /// revealed a 128 kHz base).
    pub fn fundamental(&self) -> Hertz {
        self.fundamental
    }

    /// Member carriers, in ascending frequency order.
    pub fn members(&self) -> &[Carrier] {
        &self.members
    }

    /// Number of member carriers.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True if the set has no members (never produced by grouping).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Harmonic numbers of the members relative to the fundamental,
    /// floored at 1: after a GCD merge or fundamental refinement a
    /// member can sit below half the refined fundamental, and rounding
    /// `f / fundamental` alone would call it "harmonic 0" — which would
    /// (among other things) count it as an even harmonic in
    /// [`even_odd_power_ratio`](HarmonicSet::even_odd_power_ratio).
    pub fn harmonic_numbers(&self) -> Vec<u32> {
        self.members
            .iter()
            .map(|c| (c.frequency() / self.fundamental).round().max(1.0) as u32)
            .collect()
    }

    /// Ratio of even-harmonic to odd-harmonic mean power — the duty-cycle
    /// clue from §2.1: ≈ 0 for a 50% duty cycle, ≈ 1 for a very small one.
    /// Returns `None` unless both even and odd harmonics were detected.
    pub fn even_odd_power_ratio(&self) -> Option<f64> {
        let mut even = Vec::new();
        let mut odd = Vec::new();
        for (c, k) in self.members.iter().zip(self.harmonic_numbers()) {
            let p = c.magnitude().watts();
            if k % 2 == 0 {
                even.push(p);
            } else {
                odd.push(p);
            }
        }
        if even.is_empty() || odd.is_empty() {
            return None;
        }
        // Median, not mean: one member parked on an unrelated spur must
        // not flip the duty-cycle hint.
        Some(fase_dsp::stats::median(&even) / fase_dsp::stats::median(&odd))
    }

    /// Combined set-level evidence: `Σ` of the members'
    /// [`Carrier::total_log_score`]. The harmonics of one physical
    /// source are independent looks at the same alternation activity,
    /// so their log-evidence adds — the "across the harmonic set" axis
    /// of the fusion module, which
    /// [`fuse_reports`](crate::fusion::fuse_reports) then also sums
    /// across channels.
    pub fn total_log_score(&self) -> f64 {
        self.members.iter().map(Carrier::total_log_score).sum()
    }
}

impl fmt::Display for HarmonicSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "harmonic set @ {} × {:?}",
            self.fundamental,
            self.harmonic_numbers()
        )
    }
}

/// Groups carriers into harmonic sets. `rel_tol` is the allowed relative
/// deviation of a member from an exact multiple (e.g. 0.002).
pub fn group_harmonic_sets(carriers: &[Carrier], rel_tol: f64) -> Vec<HarmonicSet> {
    let mut sorted: Vec<Carrier> = carriers.to_vec();
    sorted.sort_by(|a, b| a.frequency().hz().total_cmp(&b.frequency().hz()));

    let mut sets: Vec<HarmonicSet> = Vec::new();
    for carrier in sorted {
        let f = carrier.frequency().hz();
        let mut best: Option<(usize, f64)> = None;
        for (i, set) in sets.iter().enumerate() {
            let fund = set.fundamental.hz();
            let k = (f / fund).round();
            if k < 1.0 {
                continue;
            }
            let err = (f - k * fund).abs() / f;
            if err <= rel_tol && best.is_none_or(|(_, e)| err < e) {
                best = Some((i, err));
            }
        }
        match best {
            Some((i, _)) => {
                sets[i].members.push(carrier);
                // Refine the fundamental: mean of member frequency / k.
                let fund = sets[i].fundamental.hz();
                let refined: f64 = sets[i]
                    .members
                    .iter()
                    .map(|c| {
                        let k = (c.frequency().hz() / fund).round().max(1.0);
                        c.frequency().hz() / k
                    })
                    .sum::<f64>()
                    / sets[i].members.len() as f64;
                sets[i].fundamental = Hertz(refined);
            }
            None => sets.push(HarmonicSet {
                fundamental: carrier.frequency(),
                members: vec![carrier],
            }),
        }
    }
    merge_by_gcd(sets, rel_tol)
}

/// Largest `g` such that `fa ≈ ka·g` (exactly) and `fb ≈ kb·g` within
/// `rel_tol`, with both harmonic numbers at most `max_k`. A direct search
/// over candidate divisors of the smaller frequency — numerically robust
/// where a float Euclid GCD is not.
fn common_divisor(fa: f64, fb: f64, rel_tol: f64, max_k: u32) -> Option<f64> {
    let (lo, hi) = if fa <= fb { (fa, fb) } else { (fb, fa) };
    if lo <= 0.0 {
        return None;
    }
    // The relative tolerance is additionally capped at an absolute 250 Hz:
    // crystal-derived combs (the families this pass exists for) align to
    // within a couple of spectrum bins, while small-integer ratio
    // coincidences between unrelated oscillators rarely do.
    let tol = (rel_tol * hi).min(250.0);
    for ka in 1..=max_k {
        let g = lo / ka as f64;
        let kb = (hi / g).round();
        if kb > max_k as f64 {
            return None; // g only shrinks further
        }
        if kb >= 1.0 && (hi - kb * g).abs() <= tol {
            return Some(g);
        }
    }
    None
}

/// Second grouping pass: merge sets whose fundamentals share a common
/// divisor. Handles families whose detected members are not multiples of
/// each other — e.g. refresh harmonics 7·128 kHz and 10·128 kHz, whose
/// 128 kHz base itself may be undetected (the paper needed near-field
/// probing to find it; the GCD reveals it from the far-field data alone).
fn merge_by_gcd(mut sets: Vec<HarmonicSet>, rel_tol: f64) -> Vec<HarmonicSet> {
    // A divisor is only credible if it is not absurdly small relative to
    // the members (tiny GCDs would merge everything), and — unlike the
    // first pass, which tolerates ordinary measurement error — the common
    // divisor must fit with high precision: comb families share one
    // physical oscillator, while unrelated regulators can sit near a
    // small-integer frequency ratio by coincidence (315 kHz and 525 kHz
    // are 3:5) without sharing anything.
    const MAX_HARMONIC: u32 = 32;
    let gcd_tol = rel_tol * 0.1;
    let mut merged = true;
    while merged {
        merged = false;
        'outer: for i in 0..sets.len() {
            for j in i + 1..sets.len() {
                let fa = sets[i].fundamental.hz();
                let fb = sets[j].fundamental.hz();
                let Some(g) = common_divisor(fa, fb, gcd_tol, MAX_HARMONIC) else {
                    continue;
                };
                // Every member of both sets must sit near a multiple of g.
                let all_fit = sets[i].members.iter().chain(&sets[j].members).all(|c| {
                    let f = c.frequency().hz();
                    let k = (f / g).round().max(1.0);
                    (f - k * g).abs() <= gcd_tol * f.max(g)
                });
                if !all_fit {
                    continue;
                }
                let absorbed = sets.remove(j);
                sets[i].members.extend(absorbed.members);
                sets[i]
                    .members
                    .sort_by(|a, b| a.frequency().hz().total_cmp(&b.frequency().hz()));
                sets[i].fundamental = Hertz(g);
                merged = true;
                break 'outer;
            }
        }
    }
    sets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::carrier::Harmonic;
    use fase_dsp::Dbm;

    fn carrier(f: f64, dbm: f64) -> Carrier {
        Carrier::new(
            Hertz(f),
            Dbm(dbm),
            Dbm(dbm - 15.0),
            vec![
                Harmonic { h: 1, score: 100.0 },
                Harmonic {
                    h: -1,
                    score: 100.0,
                },
            ],
        )
    }

    #[test]
    fn groups_regulator_harmonics() {
        let carriers = vec![
            carrier(315_000.0, -104.0),
            carrier(630_050.0, -108.0), // slight measurement error
            carrier(944_900.0, -112.0),
            carrier(512_000.0, -124.0), // refresh family
            carrier(1_024_000.0, -125.0),
        ];
        let sets = group_harmonic_sets(&carriers, 0.002);
        assert_eq!(sets.len(), 2);
        let reg = sets.iter().find(|s| s.len() == 3).expect("regulator set");
        assert!((reg.fundamental().khz() - 315.0).abs() < 0.5);
        assert_eq!(reg.harmonic_numbers(), vec![1, 2, 3]);
        let refresh = sets.iter().find(|s| s.len() == 2).expect("refresh set");
        assert!((refresh.fundamental().khz() - 512.0).abs() < 0.5);
        assert_eq!(refresh.harmonic_numbers(), vec![1, 2]);
    }

    #[test]
    fn unrelated_carriers_stay_apart() {
        let carriers = vec![carrier(315_000.0, -104.0), carrier(430_000.0, -110.0)];
        let sets = group_harmonic_sets(&carriers, 0.002);
        assert_eq!(sets.len(), 2);
        assert!(sets.iter().all(|s| s.len() == 1));
    }

    #[test]
    fn even_odd_ratio_flags_duty_cycle() {
        // Small duty: even harmonics as strong as odd ones.
        let small_duty = group_harmonic_sets(
            &[
                carrier(512_000.0, -124.0),
                carrier(1_024_000.0, -124.5),
                carrier(1_536_000.0, -125.0),
            ],
            0.002,
        );
        let r = small_duty[0].even_odd_power_ratio().unwrap();
        assert!(r > 0.5, "small-duty ratio {r}");

        // Near-50% duty: even harmonics strongly suppressed.
        let half_duty = group_harmonic_sets(
            &[
                carrier(315_000.0, -104.0),
                carrier(630_000.0, -130.0),
                carrier(945_000.0, -112.0),
            ],
            0.002,
        );
        let r = half_duty[0].even_odd_power_ratio().unwrap();
        assert!(r < 0.05, "half-duty ratio {r}");

        // Odd-only detections: no ratio available.
        let odd_only = group_harmonic_sets(
            &[carrier(315_000.0, -104.0), carrier(945_000.0, -112.0)],
            0.002,
        );
        assert!(odd_only[0].even_odd_power_ratio().is_none());
    }

    #[test]
    fn merged_member_below_fundamental_floors_harmonic_at_one() {
        // A merged set whose lowest detected member ended up *below* the
        // refined fundamental: rounding 100 kHz / 260 kHz would yield
        // harmonic number 0. The accessor must floor at 1, and the member
        // must count as an odd harmonic for the duty-cycle ratio.
        let set = HarmonicSet {
            fundamental: Hertz(260_000.0),
            members: vec![
                carrier(100_000.0, -110.0),
                carrier(520_000.0, -120.0),
                carrier(780_000.0, -112.0),
            ],
        };
        assert_eq!(set.harmonic_numbers(), vec![1, 2, 3]);
        let r = set.even_odd_power_ratio().expect("even and odd present");
        assert!(r.is_finite() && r > 0.0, "ratio {r}");
    }

    #[test]
    fn gcd_merge_emits_no_zero_harmonics() {
        // Sets [400 kHz] and [999.9 kHz] share a ~200 kHz divisor and
        // merge; every harmonic number of the merged set must be >= 1.
        let sets = group_harmonic_sets(
            &[carrier(400_000.0, -110.0), carrier(999_900.0, -115.0)],
            0.003,
        );
        assert_eq!(sets.len(), 1, "sets: {sets:?}");
        assert!((sets[0].fundamental().khz() - 200.0).abs() < 1.0);
        assert_eq!(sets[0].harmonic_numbers(), vec![2, 5]);
        assert!(sets[0].harmonic_numbers().iter().all(|&k| k >= 1));
    }

    #[test]
    fn empty_input() {
        assert!(group_harmonic_sets(&[], 0.002).is_empty());
    }

    #[test]
    fn set_evidence_sums_member_evidence() {
        let sets = group_harmonic_sets(
            &[carrier(315_000.0, -104.0), carrier(630_000.0, -108.0)],
            0.002,
        );
        assert_eq!(sets.len(), 1);
        let expected: f64 = sets[0].members().iter().map(Carrier::total_log_score).sum();
        assert!((sets[0].total_log_score() - expected).abs() < 1e-12);
        assert!(sets[0].total_log_score() > 0.0);
    }

    // ----- property tests: seeded sweeps over the edge cases -----------

    use fase_dsp::rng::{Rng, SmallRng};

    /// Invariants every grouping must satisfy, whatever the input: no
    /// member lost or duplicated, fundamentals finite and positive,
    /// harmonic numbers floored at 1, and the duty-cycle ratio either
    /// absent or a finite non-negative number (never a divide-by-zero
    /// NaN/Inf).
    fn assert_grouping_invariants(carriers: &[Carrier], sets: &[HarmonicSet]) {
        let member_count: usize = sets.iter().map(HarmonicSet::len).sum();
        assert_eq!(member_count, carriers.len(), "members lost or duplicated");
        for set in sets {
            assert!(!set.is_empty());
            let fund = set.fundamental().hz();
            assert!(fund.is_finite() && fund > 0.0, "fundamental {fund}");
            assert!(set.harmonic_numbers().iter().all(|&k| k >= 1));
            assert!(set.total_log_score().is_finite());
            if let Some(r) = set.even_odd_power_ratio() {
                assert!(r.is_finite() && r >= 0.0, "ratio {r}");
            }
        }
    }

    #[test]
    fn property_random_combs_group_without_misgrouping() {
        let rel_tol = 0.002;
        for trial in 0..64u64 {
            let mut rng = SmallRng::seed_from_u64(trial).fork(0xC0B);
            // One comb family plus a few unrelated singletons, with
            // per-member jitter well inside the tolerance.
            let base = 80_000.0 + rng.gen_f64() * 500_000.0;
            let mut carriers = Vec::new();
            let harmonics = 2 + (rng.next_u64() % 4) as usize;
            for k in 1..=harmonics {
                let jitter = (rng.gen_f64() - 0.5) * rel_tol * base;
                carriers.push(carrier(base * k as f64 + jitter, -110.0));
            }
            let singles = (rng.next_u64() % 3) as usize;
            for i in 0..singles {
                // Decoys at golden-ratio offsets from the comb: φ + i is
                // maximally far from every rational with a denominator
                // the GCD pass could use (max_k = 32), so neither pass
                // may absorb them — a random ratio would occasionally
                // land near a small rational (e.g. 18/13) and merge
                // legitimately.
                let f = base * (1.618_033_988_749_895 + i as f64);
                carriers.push(carrier(f, -115.0));
            }
            let sets = group_harmonic_sets(&carriers, rel_tol);
            assert_grouping_invariants(&carriers, &sets);
            let comb = sets
                .iter()
                .max_by_key(|s| s.len())
                .expect("nonempty grouping");
            assert_eq!(comb.len(), harmonics, "comb split: {sets:?}");
            assert!(
                (comb.fundamental().hz() - base).abs() <= rel_tol * base,
                "fundamental {} drifted from base {base}",
                comb.fundamental().hz()
            );
        }
    }

    #[test]
    fn property_rel_tol_boundary_separates_near_rational_pairs() {
        // A second carrier parked near 2× the first: relative error just
        // inside `rel_tol` must group (the comparison is inclusive);
        // pushed to 3× the tolerance it must stay separate — the tighter
        // `gcd_tol = rel_tol / 10` of the second pass must not rescue it.
        let rel_tol = 0.002;
        for trial in 0..64u64 {
            let mut rng = SmallRng::seed_from_u64(trial).fork(0xB0B);
            let f = 100_000.0 + rng.gen_f64() * 1_000_000.0;
            let inside = [
                carrier(f, -110.0),
                carrier(2.0 * f * (1.0 + rel_tol), -112.0),
            ];
            let sets = group_harmonic_sets(&inside, rel_tol);
            assert_grouping_invariants(&inside, &sets);
            assert_eq!(sets.len(), 1, "boundary pair split at f={f}");
            assert_eq!(sets[0].harmonic_numbers(), vec![1, 2]);

            let outside = [
                carrier(f, -110.0),
                carrier(2.0 * f * (1.0 + 3.0 * rel_tol), -112.0),
            ];
            let sets = group_harmonic_sets(&outside, rel_tol);
            assert_grouping_invariants(&outside, &sets);
            assert_eq!(sets.len(), 2, "off-tolerance pair merged at f={f}");
        }
    }

    #[test]
    fn property_common_divisor_saturates_at_max_k() {
        for trial in 0..64u64 {
            let mut rng = SmallRng::seed_from_u64(trial).fork(0xD1F);
            let g = 50_000.0 + rng.gen_f64() * 200_000.0;
            // Within the cap: 7g vs 10g reveals g itself.
            let found = common_divisor(7.0 * g, 10.0 * g, 0.0002, 32)
                .expect("in-cap family must share a divisor");
            assert!((found - g).abs() <= 1e-6 * g, "divisor {found} vs {g}");
            // Beyond the cap: the larger frequency would need k > max_k
            // for every candidate divisor, so the search must give up
            // rather than return a sub-divisor.
            assert_eq!(common_divisor(g, 33.5 * g, 0.0002, 32), None);
            // Degenerate inputs never panic and never "succeed".
            assert_eq!(common_divisor(0.0, 10.0 * g, 0.0002, 32), None);
            assert_eq!(common_divisor(-g, 10.0 * g, 0.0002, 32), None);
        }
    }

    #[test]
    fn property_single_parity_sets_have_no_duty_cycle_ratio() {
        for trial in 0..32u64 {
            let mut rng = SmallRng::seed_from_u64(trial).fork(0xEE);
            let f = 100_000.0 + rng.gen_f64() * 500_000.0;
            // Odd-only detections (k = 1, 3, 5, ...).
            let odd: Vec<Carrier> = (0..2 + (rng.next_u64() % 3))
                .map(|i| carrier(f * (2 * i + 1) as f64, -110.0))
                .collect();
            for set in group_harmonic_sets(&odd, 0.002) {
                assert!(set.even_odd_power_ratio().is_none(), "{set}");
            }
            // Even-only members relative to an undetected fundamental:
            // constructed directly, since grouping would re-derive the
            // 2f base and renumber them 1, 2, ... (mixed parity again).
            let even_only = HarmonicSet {
                fundamental: Hertz(f),
                members: vec![carrier(2.0 * f, -110.0), carrier(4.0 * f, -112.0)],
            };
            assert_eq!(even_only.harmonic_numbers(), vec![2, 4]);
            assert!(even_only.even_odd_power_ratio().is_none());
            assert_grouping_invariants(even_only.members(), std::slice::from_ref(&even_only));
        }
    }

    #[test]
    fn display() {
        let sets = group_harmonic_sets(&[carrier(315_000.0, -104.0)], 0.002);
        let text = format!("{}", sets[0]);
        assert!(text.contains("315.000 kHz"), "{text}");
    }
}
