//! Activity traces: piecewise-constant per-domain load over time.
//!
//! The micro-benchmark produces a few hundred thousand phase segments per
//! simulated second; the EM simulator samples them at its IQ rate. Segments
//! are contiguous — each begins where the previous one ended — which lets
//! lookups use binary search and keeps the representation compact.

use crate::domains::{Domain, DomainLoads};
use std::fmt;

/// One constant-load stretch of time. Times are in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Start time in seconds.
    pub start: f64,
    /// Duration in seconds (positive).
    pub duration: f64,
    /// Per-domain load during the segment.
    pub loads: DomainLoads,
}

impl Segment {
    /// End time of the segment.
    pub fn end(&self) -> f64 {
        self.start + self.duration
    }
}

/// A contiguous sequence of [`Segment`]s starting at t = 0.
///
/// # Examples
///
/// ```
/// use fase_sysmodel::{ActivityTrace, DomainLoads, Domain};
/// let mut trace = ActivityTrace::new();
/// trace.push(1e-3, DomainLoads::new(1.0, 0.0, 0.0));
/// trace.push(1e-3, DomainLoads::new(0.0, 0.0, 1.0));
/// assert_eq!(trace.duration(), 2e-3);
/// assert_eq!(trace.loads_at(1.5e-3)[Domain::Dram], 1.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ActivityTrace {
    segments: Vec<Segment>,
    duration: f64,
}

impl ActivityTrace {
    /// Creates an empty trace.
    pub fn new() -> ActivityTrace {
        ActivityTrace::default()
    }

    /// Appends a segment of the given duration.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is not positive and finite.
    pub fn push(&mut self, duration: f64, loads: DomainLoads) {
        assert!(
            duration > 0.0 && duration.is_finite(),
            "segment duration must be positive"
        );
        self.segments.push(Segment {
            start: self.duration,
            duration,
            loads,
        });
        self.duration += duration;
    }

    /// Total trace duration in seconds.
    pub fn duration(&self) -> f64 {
        self.duration
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// True if the trace holds no segments.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// The segments, in time order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Loads at time `t`. Times before 0 or past the end clamp to the
    /// first/last segment; an empty trace is fully idle.
    pub fn loads_at(&self, t: f64) -> DomainLoads {
        if self.segments.is_empty() {
            return DomainLoads::IDLE;
        }
        let idx = self
            .segments
            .partition_point(|s| s.end() <= t)
            .min(self.segments.len() - 1);
        self.segments[idx].loads
    }

    /// Time-weighted mean load over the whole trace.
    pub fn mean_loads(&self) -> DomainLoads {
        if self.duration == 0.0 {
            return DomainLoads::IDLE;
        }
        let mut acc = DomainLoads::IDLE;
        for s in &self.segments {
            acc = acc + s.loads * s.duration;
        }
        acc * (1.0 / self.duration)
    }

    /// Samples one domain's load at `n` uniformly spaced instants covering
    /// `[0, duration)` at sample rate `fs` (`n` samples, `t_k = k/fs`).
    ///
    /// This is the waveform the EM modulators consume. Sampling proceeds in
    /// a single pass (amortized O(n + segments)).
    ///
    /// # Panics
    ///
    /// Panics if `fs` is not positive.
    pub fn rasterize(&self, domain: Domain, fs: f64, n: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(n);
        self.sample(fs, n, |loads| out.push(loads[domain]));
        out
    }

    /// [`ActivityTrace::rasterize`] for all three domains in one walk, in
    /// `[core, memory interface, DRAM]` order; each waveform is
    /// bit-identical to its own `rasterize` call.
    ///
    /// # Panics
    ///
    /// Panics if `fs` is not positive.
    pub fn rasterize_domains(&self, fs: f64, n: usize) -> [Vec<f64>; 3] {
        let mut core = Vec::with_capacity(n);
        let mut memory = Vec::with_capacity(n);
        let mut dram = Vec::with_capacity(n);
        self.sample(fs, n, |loads| {
            core.push(loads.core);
            memory.push(loads.memory_interface);
            dram.push(loads.dram);
        });
        [core, memory, dram]
    }

    /// The walk behind both rasterizers: calls `emit` with the loads at
    /// each `t_k = k/fs`, `k < n` (idle on an empty trace).
    fn sample(&self, fs: f64, n: usize, mut emit: impl FnMut(&DomainLoads)) {
        assert!(fs > 0.0, "sample rate must be positive");
        let mut seg_idx = 0usize;
        for k in 0..n {
            let t = k as f64 / fs;
            while seg_idx + 1 < self.segments.len() && self.segments[seg_idx].end() <= t {
                seg_idx += 1;
            }
            emit(
                self.segments
                    .get(seg_idx)
                    .map_or(&DomainLoads::IDLE, |s| &s.loads),
            );
        }
    }
}

impl fmt::Display for ActivityTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ActivityTrace[{} segments, {:.6} s, mean {}]",
            self.len(),
            self.duration,
            self.mean_loads()
        )
    }
}

/// A single refresh command issued by the memory controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefreshEvent {
    /// Command start time in seconds.
    pub start: f64,
    /// Command duration in seconds (≈ tRFC, about 200 ns).
    pub duration: f64,
}

impl RefreshEvent {
    /// End time of the refresh command.
    pub fn end(&self) -> f64 {
        self.start + self.duration
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xy_trace() -> ActivityTrace {
        let mut t = ActivityTrace::new();
        for _ in 0..4 {
            t.push(1e-3, DomainLoads::new(1.0, 0.0, 0.0));
            t.push(1e-3, DomainLoads::new(0.2, 1.0, 1.0));
        }
        t
    }

    #[test]
    fn push_accumulates_duration() {
        let t = xy_trace();
        assert_eq!(t.len(), 8);
        assert!((t.duration() - 8e-3).abs() < 1e-15);
        assert_eq!(t.segments()[3].start, 3e-3);
    }

    #[test]
    fn loads_at_times() {
        let t = xy_trace();
        assert_eq!(t.loads_at(0.5e-3).core, 1.0);
        assert_eq!(t.loads_at(1.5e-3).dram, 1.0);
        // Clamping at the ends.
        assert_eq!(t.loads_at(-1.0).core, 1.0);
        assert_eq!(t.loads_at(100.0).dram, 1.0);
        assert_eq!(ActivityTrace::new().loads_at(0.0), DomainLoads::IDLE);
    }

    #[test]
    fn boundary_belongs_to_next_segment() {
        let t = xy_trace();
        assert_eq!(t.loads_at(1e-3).dram, 1.0);
        assert_eq!(t.loads_at(2e-3).core, 1.0);
    }

    #[test]
    fn mean_loads_are_time_weighted() {
        let mut t = ActivityTrace::new();
        t.push(3e-3, DomainLoads::new(1.0, 0.0, 0.0));
        t.push(1e-3, DomainLoads::new(0.0, 0.0, 1.0));
        let m = t.mean_loads();
        assert!((m.core - 0.75).abs() < 1e-12);
        assert!((m.dram - 0.25).abs() < 1e-12);
    }

    #[test]
    fn rasterize_square_wave() {
        let t = xy_trace();
        let fs = 16_000.0; // 16 samples per 1 ms segment
        let n = (t.duration() * fs) as usize;
        let wave = t.rasterize(Domain::Dram, fs, n);
        assert_eq!(wave.len(), n);
        // First 16 samples idle DRAM, next 16 busy.
        assert!(wave[..16].iter().all(|&x| x == 0.0));
        assert!(wave[16..32].iter().all(|&x| x == 1.0));
        // 50% duty overall.
        let mean: f64 = wave.iter().sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01);
    }

    #[test]
    fn rasterize_domains_matches_each_rasterize_bit_for_bit() {
        // Irregular segments and a rate that puts samples on boundaries.
        let mut t = ActivityTrace::new();
        for i in 0..40 {
            let loads =
                DomainLoads::new(0.1 * (i % 7) as f64, 0.3 / (1 + i) as f64, (i % 2) as f64);
            t.push(1e-4 * (1.0 + 0.37 * (i % 5) as f64), loads);
        }
        let (fs, n) = (40_000.0, 700);
        let [core, memory, dram] = t.rasterize_domains(fs, n);
        for (wave, domain) in [
            (core, Domain::Core),
            (memory, Domain::MemoryInterface),
            (dram, Domain::Dram),
        ] {
            let expected = t.rasterize(domain, fs, n);
            assert!(wave
                .iter()
                .map(|x| x.to_bits())
                .eq(expected.iter().map(|x| x.to_bits())));
        }
        let [idle, ..] = ActivityTrace::new().rasterize_domains(fs, 3);
        assert_eq!(idle, vec![0.0; 3]);
    }

    #[test]
    fn rasterize_past_end_is_zero() {
        let mut t = ActivityTrace::new();
        t.push(1e-3, DomainLoads::new(1.0, 0.0, 0.0));
        let wave = t.rasterize(Domain::Core, 1000.0, 3);
        // t = 0, 1ms, 2ms; the last two fall at/after the end: last segment
        // load is used for t within [end of last segment) clamping, i.e.
        // index stays on the final segment.
        assert_eq!(wave[0], 1.0);
        assert_eq!(wave[1], 1.0);
        assert_eq!(wave[2], 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_duration_segment_panics() {
        ActivityTrace::new().push(0.0, DomainLoads::IDLE);
    }

    #[test]
    fn refresh_event_end() {
        let r = RefreshEvent {
            start: 1e-3,
            duration: 200e-9,
        };
        assert!((r.end() - 0.0010002).abs() < 1e-12);
    }
}
