//! The modeled machine: executes activities through the cache hierarchy and
//! produces per-domain activity traces.
//!
//! Two fidelity levels cooperate:
//!
//! * **op-level profiling** runs each activity's real pointer-chase through
//!   the tag arrays to measure per-operation latency, serving level and
//!   per-domain load (with warmed caches, as in the steady state of the
//!   paper's benchmark);
//! * **phase-level trace generation** then emits one trace segment per X or
//!   Y phase, with per-phase timing jitter — fast enough to simulate the
//!   hundreds of milliseconds a full five-`f_alt` campaign needs.

use crate::activity::{Activity, PointerChase};
use crate::cache::{fnv_fold, MemoryHierarchy};
use crate::domains::DomainLoads;
use crate::microbench::Alternation;
use crate::trace::ActivityTrace;
use fase_dsp::memo::{memoize, Memo};
use fase_dsp::rng::Rng;
use std::sync::Arc;

/// Timing-jitter model for phase execution.
///
/// Real repetitions of a loop do not all take the same time; the paper
/// (§2.1, Figure 2) notes there are often *several commonly-occurring
/// execution times* due to contention. We model a Gaussian per-phase jitter
/// plus an occasional discrete "contention stretch".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JitterConfig {
    /// Relative standard deviation of per-phase duration (e.g. 0.004).
    pub sigma_rel: f64,
    /// Probability that a phase suffers a contention stall.
    pub contention_prob: f64,
    /// Relative stretch of a stalled phase (e.g. 0.10 = 10% longer).
    pub contention_stretch: f64,
}

impl Default for JitterConfig {
    fn default() -> JitterConfig {
        JitterConfig {
            sigma_rel: 0.004,
            contention_prob: 0.03,
            contention_stretch: 0.10,
        }
    }
}

impl JitterConfig {
    /// A perfectly deterministic machine (useful in tests).
    pub const NONE: JitterConfig = JitterConfig {
        sigma_rel: 0.0,
        contention_prob: 0.0,
        contention_stretch: 0.0,
    };
}

/// Static configuration of a modeled machine.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// CPU core clock in Hz.
    pub clock_hz: f64,
    /// Phase-timing jitter model.
    pub jitter: JitterConfig,
    /// Stride of the pointer chase in bytes (one cache line by default).
    pub chase_stride: u64,
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig {
            clock_hz: 3.4e9,
            jitter: JitterConfig::default(),
            chase_stride: 64,
        }
    }
}

/// Steady-state profile of one activity on a machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelProfile {
    /// Mean seconds per operation (warm caches).
    pub op_seconds: f64,
    /// Latency-weighted mean per-domain load while the activity runs.
    pub loads: DomainLoads,
    /// Fraction of operations served by DRAM.
    pub dram_fraction: f64,
}

/// A modeled machine: clock + cache hierarchy + jitter model.
///
/// # Examples
///
/// ```
/// use fase_sysmodel::{Activity, Machine};
/// let mut machine = Machine::core_i7();
/// let ldm = machine.profile(Activity::LoadDram, 4096);
/// let ldl1 = machine.profile(Activity::LoadL1, 4096);
/// // DRAM loads are much slower and load the DRAM power domain.
/// assert!(ldm.op_seconds > 10.0 * ldl1.op_seconds);
/// assert!(ldm.loads.dram > 0.9 && ldl1.loads.dram < 0.05);
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    config: MachineConfig,
    /// Copy-on-write: clones of a profiled machine (one per capture) and
    /// memo replays share the warmed tag arrays instead of copying them.
    hierarchy: Arc<MemoryHierarchy>,
    /// Names the hierarchy's current state by its derivation: the fold
    /// of the starting hierarchy for a new machine, then the memo key of
    /// each profiling run that moved it. Equal ids mean equal states, so
    /// a profiling key needs no re-fold of the warmed tag arrays.
    state_id: u64,
    /// Memoized steady-state profiles keyed by `(activity, ops)`.
    ///
    /// Profiling runs the full pointer chase through the tag arrays —
    /// hundreds of thousands of accesses for DRAM-sized footprints — and
    /// its warmed-cache result is deterministic, so each (activity, ops)
    /// pair is measured once per machine. Campaigns re-profile the same
    /// two activities for every capture; the cache turns all but the
    /// first into lookups.
    profile_cache: std::collections::HashMap<(Activity, usize), KernelProfile>,
}

/// FNV-1a offset basis of the hierarchy-state and profiling-key folds.
const FOLD_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Process-wide memo of pointer-chase profiling runs, shared by every
/// thread.
///
/// Campaigns build a *fresh* machine per alternation frequency, and
/// every campaign runs on fresh pool workers, so the per-instance
/// `profile_cache` above never amortizes the first — and by far most
/// expensive — profiling pass: warming a DRAM-sized footprint walks the
/// tag arrays about a million times (~100 ms). The outcome is a pure
/// function of the machine config, the hierarchy's starting state, and
/// `(activity, ops)`, all folded into the key — the state as the
/// machine's `state_id`, so a key costs a few folds however warm the
/// hierarchy is. The value stores both the profile and the
/// post-profiling hierarchy state, whose id the key becomes, so a hit
/// replays the run bit-exactly — including the cache-warming side effect
/// — on any identically-configured machine. It holds at most 16 entries;
/// traffic counts into `sysmodel.profile_memo_hits` /
/// `sysmodel.profile_memo_misses`.
static PROFILE_MEMO: Memo<u64, (KernelProfile, Arc<MemoryHierarchy>)> = Memo::new(
    16,
    "sysmodel.profile_memo_hits",
    "sysmodel.profile_memo_misses",
);

impl Machine {
    /// Creates a machine from explicit parts.
    pub fn new(config: MachineConfig, hierarchy: MemoryHierarchy) -> Machine {
        Machine {
            config,
            state_id: hierarchy.fold_state(FOLD_BASIS),
            hierarchy: Arc::new(hierarchy),
            profile_cache: std::collections::HashMap::new(),
        }
    }

    /// The paper's Intel Core i7 desktop (3.4 GHz).
    pub fn core_i7() -> Machine {
        Machine::new(MachineConfig::default(), MemoryHierarchy::core_i7())
    }

    /// A laptop-class machine (2.2 GHz, smaller caches) used for the AMD
    /// Turion X2 scene.
    pub fn laptop() -> Machine {
        Machine::new(
            MachineConfig {
                clock_hz: 2.2e9,
                ..MachineConfig::default()
            },
            MemoryHierarchy::laptop(),
        )
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Measures the steady-state per-op latency and domain loads of an
    /// activity by running `ops` operations with warmed caches.
    ///
    /// The measurement is deterministic, so repeated calls with the same
    /// `(activity, ops)` return the memoized first result without
    /// re-running the pointer chase.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is zero.
    pub fn profile(&mut self, activity: Activity, ops: usize) -> KernelProfile {
        if let Some(&cached) = self.profile_cache.get(&(activity, ops)) {
            return cached;
        }
        let key = self.memo_key(activity, ops);
        let (profile, end_state) = memoize(&PROFILE_MEMO, key, || {
            let profile = self.profile_uncached(activity, ops);
            (profile, Arc::clone(&self.hierarchy))
        });
        self.hierarchy = end_state;
        self.state_id = key;
        self.profile_cache.insert((activity, ops), profile);
        profile
    }

    /// Folds everything `profile_uncached` reads — clock, chase stride,
    /// the hierarchy state (by its id), and the request itself — so equal
    /// keys guarantee equal profiling outcomes and end states.
    fn memo_key(&self, activity: Activity, ops: usize) -> u64 {
        let mut h = FOLD_BASIS;
        h = fnv_fold(h, self.config.clock_hz.to_bits());
        h = fnv_fold(h, self.config.chase_stride);
        h = fnv_fold(h, self.state_id);
        for byte in format!("{activity:?}").bytes() {
            h = fnv_fold(h, byte as u64);
        }
        fnv_fold(h, ops as u64)
    }

    fn profile_uncached(&mut self, activity: Activity, ops: usize) -> KernelProfile {
        assert!(ops > 0, "profiling requires at least one operation");
        let cycle = 1.0 / self.config.clock_hz;

        if let Some(alu_cycles) = activity.alu_latency_cycles() {
            return KernelProfile {
                op_seconds: alu_cycles as f64 * cycle,
                loads: activity.domain_loads(None),
                dram_fraction: 0.0,
            };
        }

        // ALU-only activities returned early above, so every remaining
        // variant reports a footprint; a footprint-less straggler profiles
        // as a single-cycle ALU kernel rather than aborting.
        let Some(footprint) = activity.footprint_bytes(&self.hierarchy) else {
            return KernelProfile {
                op_seconds: cycle,
                loads: activity.domain_loads(None),
                dram_fraction: 0.0,
            };
        };
        let mut chase = PointerChase::new(0x4000_0000, footprint, self.config.chase_stride);
        let hierarchy = Arc::make_mut(&mut self.hierarchy);

        // Warm up: two full passes over the footprint.
        let lines = footprint as u64 / self.config.chase_stride;
        for _ in 0..2 * lines {
            hierarchy.access(chase.next_address());
        }

        let mut total_cycles = 0u64;
        let mut weighted = DomainLoads::IDLE;
        let mut dram_ops = 0usize;
        for _ in 0..ops {
            let addr = chase.next_address();
            let outcome = hierarchy.access(addr);
            total_cycles += outcome.latency_cycles;
            weighted = weighted
                + activity.domain_loads(Some(outcome.level)) * (outcome.latency_cycles as f64);
            if outcome.level == crate::cache::AccessLevel::Dram {
                dram_ops += 1;
            }
        }
        KernelProfile {
            op_seconds: total_cycles as f64 * cycle / ops as f64,
            loads: weighted * (1.0 / total_cycles as f64),
            dram_fraction: dram_ops as f64 / ops as f64,
        }
    }

    /// Runs the X/Y alternation for at least `duration` seconds and returns
    /// the resulting activity trace (one segment per phase).
    ///
    /// # Panics
    ///
    /// Panics if `duration` is not positive.
    pub fn run_alternation<R: Rng + ?Sized>(
        &mut self,
        bench: &Alternation,
        duration: f64,
        rng: &mut R,
    ) -> ActivityTrace {
        assert!(duration > 0.0, "duration must be positive");
        let x = self.profile(bench.x(), bench.profile_ops());
        let y = self.profile(bench.y(), bench.profile_ops());
        let x_nominal = bench.x_count() as f64 * x.op_seconds;
        let y_nominal = bench.y_count() as f64 * y.op_seconds;

        let mut trace = ActivityTrace::new();
        while trace.duration() < duration {
            trace.push(self.jittered(x_nominal, rng), x.loads);
            trace.push(self.jittered(y_nominal, rng), y.loads);
        }
        trace
    }

    /// Runs a bit-keyed activity pattern: each bit executes `one` (for 1)
    /// or `zero` (for 0) for `bit_duration` seconds — the transmitter side
    /// of an activity-keyed covert channel over an EM carrier.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is empty or `bit_duration` is not positive.
    pub fn run_bit_pattern<R: Rng + ?Sized>(
        &mut self,
        bits: &[bool],
        bit_duration: f64,
        one: Activity,
        zero: Activity,
        rng: &mut R,
    ) -> ActivityTrace {
        assert!(!bits.is_empty(), "bit pattern must be non-empty");
        assert!(bit_duration > 0.0, "bit duration must be positive");
        let p_one = self.profile(one, Alternation::PROFILE_OPS);
        let p_zero = self.profile(zero, Alternation::PROFILE_OPS);
        let mut trace = ActivityTrace::new();
        for &bit in bits {
            let profile = if bit { &p_one } else { &p_zero };
            trace.push(self.jittered(bit_duration, rng), profile.loads);
        }
        trace
    }

    fn jittered<R: Rng + ?Sized>(&self, nominal: f64, rng: &mut R) -> f64 {
        let j = self.config.jitter;
        let mut d = nominal;
        if j.sigma_rel > 0.0 {
            d *= 1.0 + j.sigma_rel * fase_gaussian(rng);
        }
        if j.contention_prob > 0.0 && rng.gen_f64() < j.contention_prob {
            d *= 1.0 + j.contention_stretch;
        }
        d.max(nominal * 0.5)
    }
}

use fase_dsp::noise::standard_normal as fase_gaussian;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::microbench::Alternation;
    use fase_dsp::rng::SmallRng;

    #[test]
    fn profiles_order_by_level() {
        let mut m = Machine::core_i7();
        let l1 = m.profile(Activity::LoadL1, 2000);
        let l2 = m.profile(Activity::LoadL2, 2000);
        let llc = m.profile(Activity::LoadLlc, 2000);
        let dram = m.profile(Activity::LoadDram, 2000);
        assert!(l1.op_seconds < l2.op_seconds);
        assert!(l2.op_seconds < llc.op_seconds);
        assert!(llc.op_seconds < dram.op_seconds);
        assert!(l1.dram_fraction < 0.01);
        assert!(dram.dram_fraction > 0.99);
    }

    #[test]
    fn alu_profiles_are_exact() {
        let mut m = Machine::core_i7();
        let add = m.profile(Activity::Add, 1);
        assert!((add.op_seconds - 1.0 / 3.4e9).abs() < 1e-18);
        assert_eq!(add.dram_fraction, 0.0);
        assert_eq!(add.loads.dram, 0.0);
    }

    #[test]
    fn l2_activity_hits_l2_not_dram() {
        let mut m = Machine::core_i7();
        let p = m.profile(Activity::LoadL2, 4000);
        // Expected latency ≈ L2 hit (12 cycles) with some L1 hits mixed in
        // at the footprint wrap; definitely below LLC latency.
        let cycles = p.op_seconds * 3.4e9;
        assert!((4.0..=14.0).contains(&cycles), "L2 op = {cycles} cycles");
        assert!(p.dram_fraction < 0.01);
        assert_eq!(p.loads.dram, 0.0);
    }

    #[test]
    fn alternation_trace_has_two_level_loads() {
        let mut m = Machine::core_i7();
        let bench = Alternation::calibrated(&mut m, Activity::LoadDram, Activity::LoadL1, 43_300.0);
        let mut rng = SmallRng::seed_from_u64(2);
        let trace = m.run_alternation(&bench, 2e-3, &mut rng);
        assert!(trace.len() > 100);
        // Alternating dram loads: even segments busy, odd idle.
        let segs = trace.segments();
        assert!(segs[0].loads.dram > 0.9);
        assert!(segs[1].loads.dram < 0.05);
        assert!(segs[2].loads.dram > 0.9);
    }

    #[test]
    fn alternation_period_matches_target() {
        let mut m = Machine::core_i7();
        let f_alt = 43_300.0;
        let bench = Alternation::calibrated(&mut m, Activity::LoadDram, Activity::LoadL1, f_alt);
        let mut rng = SmallRng::seed_from_u64(3);
        let trace = m.run_alternation(&bench, 10e-3, &mut rng);
        // Mean alternation period = trace duration / number of X/Y pairs.
        let pairs = trace.len() as f64 / 2.0;
        let period = trace.duration() / pairs;
        let measured_f = 1.0 / period;
        assert!(
            (measured_f - f_alt).abs() / f_alt < 0.03,
            "measured f_alt {measured_f}"
        );
    }

    #[test]
    fn jitter_none_is_deterministic() {
        let mut m = Machine::core_i7();
        m.config.jitter = JitterConfig::NONE;
        let bench = Alternation::calibrated(&mut m, Activity::LoadL2, Activity::LoadL1, 100_000.0);
        let mut rng = SmallRng::seed_from_u64(4);
        let trace = m.run_alternation(&bench, 1e-3, &mut rng);
        let d0 = trace.segments()[0].duration;
        let d2 = trace.segments()[2].duration;
        assert_eq!(d0, d2);
    }

    #[test]
    fn bit_pattern_trace_follows_bits() {
        let mut m = Machine::core_i7();
        let bits = [true, false, true, true, false];
        let mut rng = SmallRng::seed_from_u64(6);
        let trace = m.run_bit_pattern(
            &bits,
            100e-6,
            Activity::LoadDram,
            Activity::LoadL1,
            &mut rng,
        );
        assert_eq!(trace.len(), bits.len());
        for (seg, &bit) in trace.segments().iter().zip(&bits) {
            if bit {
                assert!(seg.loads.dram > 0.9, "1-bit must light DRAM");
            } else {
                assert!(seg.loads.dram < 0.05, "0-bit must idle DRAM");
            }
            assert!((seg.duration - 100e-6).abs() < 20e-6);
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_bit_pattern_panics() {
        let mut m = Machine::core_i7();
        let mut rng = SmallRng::seed_from_u64(7);
        let _ = m.run_bit_pattern(&[], 1e-4, Activity::LoadDram, Activity::LoadL1, &mut rng);
    }

    #[test]
    fn profile_memo_replays_bit_exactly() {
        // Two identically-built machines: the first pays the pointer
        // chase, the second replays it from the process-wide memo on
        // another thread. Both the profiles and the warmed hierarchy state
        // must be identical, so everything downstream (traces, captures)
        // stays bit-equal.
        let mut a = Machine::core_i7();
        let pa_dram = a.profile(Activity::LoadDram, 2000);
        let pa_l1 = a.profile(Activity::LoadL1, 2000);
        let (mut b, pb_dram, pb_l1) = std::thread::spawn(|| {
            let mut b = Machine::core_i7();
            let pb_dram = b.profile(Activity::LoadDram, 2000);
            let pb_l1 = b.profile(Activity::LoadL1, 2000);
            (b, pb_dram, pb_l1)
        })
        .join()
        .expect("profiling thread panicked");
        assert_eq!(pa_dram, pb_dram);
        assert_eq!(pa_l1, pb_l1);
        assert_eq!(a.hierarchy.fold_state(17), b.hierarchy.fold_state(17));
        // And the replayed machine keeps behaving like the original.
        let bench = Alternation::calibrated(&mut a, Activity::LoadDram, Activity::LoadL1, 50e3);
        let bench_b = Alternation::calibrated(&mut b, Activity::LoadDram, Activity::LoadL1, 50e3);
        assert_eq!(bench.x_count(), bench_b.x_count());
        assert_eq!(bench.y_count(), bench_b.y_count());
    }

    #[test]
    fn a_prewarmed_hierarchy_does_not_replay_a_fresh_machines_profile() {
        // A fresh machine's run lands in the process-wide memo first.
        let mut fresh = Machine::core_i7();
        fresh.profile(Activity::LoadL2, 3000);
        // A hierarchy warmed before the machine was built starts from
        // another state, so the same request must run its own chase.
        let mut warm = MemoryHierarchy::core_i7();
        for line in 0..4096u64 {
            warm.access(0x8000_0000 + line * 64);
        }
        let mut machine = Machine::new(MachineConfig::default(), warm);
        let mut reference = machine.clone();
        let expected = reference.profile_uncached(Activity::LoadL2, 3000);
        assert_eq!(machine.profile(Activity::LoadL2, 3000), expected);
        let end = machine.hierarchy.fold_state(17);
        assert_eq!(end, reference.hierarchy.fold_state(17));
        // The warm lines outlive the chase, so replaying the fresh entry
        // would have left the fresh machine's end state instead.
        assert_ne!(end, fresh.hierarchy.fold_state(17));
    }

    #[test]
    fn jitter_produces_duration_spread() {
        let mut m = Machine::core_i7();
        let bench = Alternation::calibrated(&mut m, Activity::LoadL2, Activity::LoadL1, 100_000.0);
        let mut rng = SmallRng::seed_from_u64(5);
        let trace = m.run_alternation(&bench, 5e-3, &mut rng);
        let durations: Vec<f64> = trace
            .segments()
            .iter()
            .step_by(2)
            .map(|s| s.duration)
            .collect();
        let mean = durations.iter().sum::<f64>() / durations.len() as f64;
        let spread = durations
            .iter()
            .map(|d| (d - mean).abs())
            .fold(0.0, f64::max);
        assert!(spread > 0.0, "expected jitter to vary phase durations");
    }
}
