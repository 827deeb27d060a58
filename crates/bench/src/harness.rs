//! A dependency-free micro-benchmark harness.
//!
//! Replaces `criterion` so the workspace builds offline. Each measurement
//! runs a warmup phase followed by `iters` timed iterations and reports
//! robust order statistics (median, p95) rather than a mean that a single
//! descheduling blip can ruin. Results collect into a [`BenchReport`] that
//! serializes itself to JSON (again, no external crates) so perf numbers
//! can be tracked across commits — `BENCH_pipeline.json` at the repo root
//! is the canonical artifact.

use fase_dsp::stats::percentile;
use std::time::Instant;

/// One benchmark measurement: order statistics over the timed iterations,
/// in nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Benchmark name (snake_case, stable across runs).
    pub name: String,
    /// Number of timed iterations.
    pub iters: usize,
    /// Median iteration time in nanoseconds.
    pub median_ns: f64,
    /// 95th-percentile iteration time in nanoseconds.
    pub p95_ns: f64,
    /// Fastest iteration in nanoseconds.
    pub min_ns: f64,
    /// Arithmetic mean in nanoseconds.
    pub mean_ns: f64,
}

impl BenchResult {
    /// Median time in milliseconds (convenience for printing).
    pub fn median_ms(&self) -> f64 {
        self.median_ns / 1e6
    }
}

/// Runs `f` for `warmup` untimed then `iters` timed iterations.
///
/// # Panics
///
/// Panics if `iters` is zero.
pub fn bench<F: FnMut()>(name: &str, warmup: usize, iters: usize, mut f: F) -> BenchResult {
    assert!(iters > 0, "need at least one timed iteration");
    for _ in 0..warmup {
        f();
    }
    let mut samples: Vec<f64> = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_nanos() as f64);
    }
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    BenchResult {
        name: name.to_string(),
        iters,
        median_ns: percentile(&samples, 50.0),
        p95_ns: percentile(&samples, 95.0),
        min_ns: percentile(&samples, 0.0),
        mean_ns: mean,
    }
}

/// A collection of benchmark results that can print a table and serialize
/// to JSON.
#[derive(Debug, Default)]
pub struct BenchReport {
    results: Vec<BenchResult>,
}

impl BenchReport {
    /// Creates an empty report.
    pub fn new() -> BenchReport {
        BenchReport::default()
    }

    /// Runs a benchmark, prints a one-line summary, and records the result.
    pub fn run<F: FnMut()>(&mut self, name: &str, warmup: usize, iters: usize, f: F) {
        let r = bench(name, warmup, iters, f);
        println!(
            "{:<44} median {:>12.3} ms   p95 {:>12.3} ms   ({} iters)",
            r.name,
            r.median_ns / 1e6,
            r.p95_ns / 1e6,
            r.iters
        );
        self.results.push(r);
    }

    /// All recorded results.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Looks up a result by name.
    pub fn get(&self, name: &str) -> Option<&BenchResult> {
        self.results.iter().find(|r| r.name == name)
    }

    /// Serializes the report as a JSON object mapping benchmark names to
    /// `{iters, median_ns, p95_ns, min_ns, mean_ns}` records, plus any
    /// extra top-level numeric fields (e.g. derived speedups).
    pub fn to_json(&self, extra: &[(&str, f64)]) -> String {
        self.to_json_sections(extra, &[])
    }

    /// Like [`BenchReport::to_json`], but additionally embeds each
    /// `(key, json)` pair of `raw_sections` as a top-level member whose
    /// value is the given pre-serialized JSON — how the pipeline bench
    /// attaches the observability stage breakdown to
    /// `BENCH_pipeline.json`. Callers must pass valid JSON values.
    pub fn to_json_sections(&self, extra: &[(&str, f64)], raw_sections: &[(&str, &str)]) -> String {
        let mut out = String::from("{\n");
        let mut first = true;
        for r in &self.results {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "  \"{}\": {{\"iters\": {}, \"median_ns\": {:.1}, \"p95_ns\": {:.1}, \
                 \"min_ns\": {:.1}, \"mean_ns\": {:.1}}}",
                r.name, r.iters, r.median_ns, r.p95_ns, r.min_ns, r.mean_ns
            ));
        }
        for (k, v) in extra {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!("  \"{k}\": {v:.4}"));
        }
        for (k, json) in raw_sections {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!("  \"{k}\": {json}"));
        }
        out.push_str("\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_and_orders_stats() {
        let mut n = 0u64;
        let r = bench("spin", 2, 16, || {
            for i in 0..10_000u64 {
                n = n.wrapping_add(i);
            }
            std::hint::black_box(n);
        });
        assert_eq!(r.iters, 16);
        assert!(r.min_ns > 0.0);
        assert!(r.min_ns <= r.median_ns);
        assert!(r.median_ns <= r.p95_ns);
    }

    #[test]
    fn report_json_is_well_formed() {
        let mut report = BenchReport::new();
        report.run("noop", 1, 4, || {
            std::hint::black_box(1);
        });
        let json = report.to_json(&[("speedup", 3.5)]);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"noop\""));
        assert!(json.contains("\"median_ns\""));
        assert!(json.contains("\"speedup\": 3.5000"));
        assert!(report.get("noop").is_some());
        assert!(report.get("missing").is_none());
    }

    #[test]
    fn raw_sections_embed_verbatim() {
        let mut report = BenchReport::new();
        report.run("noop", 1, 2, || {
            std::hint::black_box(1);
        });
        let json = report.to_json_sections(
            &[("speedup", 2.0)],
            &[("stage_breakdown", "{ \"campaign\": { \"count\": 1 } }")],
        );
        assert!(
            json.contains("\"stage_breakdown\": { \"campaign\": { \"count\": 1 } }"),
            "{json}"
        );
        assert!(json.contains("\"speedup\": 2.0000"), "{json}");
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_iters_panics() {
        let _ = bench("bad", 0, 0, || {});
    }
}
