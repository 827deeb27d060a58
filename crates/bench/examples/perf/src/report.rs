//! The metrics a run reports, and the two lines it ends with: a run stamp
//! and the result object.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A declared metric: its name and unit. Which direction is better, and
/// by how much an end-to-end metric may worsen, only `BENCHMARK.json`
/// says.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Metrics of an untraced run (`--trace 0`). Every workload reports each.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s"),
    def("p50_ms", "ms"),
    def("cpu_ms_per_op", "ms"),
];

/// Metrics of a traced run (`--trace 1`), per op. A layer the workload
/// does not exercise reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    def("emsim.synth_ms", "ms"),
    def("emsim.samples_per_op", "count"),
    def("dsp.transform_ms", "ms"),
    def("dsp.fft_points_per_op", "count"),
    def("dsp.plan_cache_hit_ratio", "ratio"),
    def("specan.capture_self_ms", "ms"),
    def("specan.captures_per_op", "count"),
    def("specan.pool_util", "ratio"),
    def("specan.reduce_ms", "ms"),
    def("specan.campaign_ms", "ms"),
    def("specan.cache_ms", "ms"),
    def("specan.cache_hit_ratio", "ratio"),
    def("specan.sweep_self_ms", "ms"),
    def("core.score_ms", "ms"),
    def("core.detect_ms", "ms"),
    def("core.group_ms", "ms"),
    def("core.bins_scored_per_op", "count"),
    def("core.detections_per_op", "count"),
    def("core.carriers_per_op", "count"),
    def("serve.service_ms", "ms"),
    def("serve.wait_ms", "ms"),
    def("serve.rejected_ratio", "ratio"),
    def("serve.cache_hit_ratio", "ratio"),
    def("serve.p90_ms.r10", "ms"),
    def("serve.p90_ms.r30", "ms"),
    def("serve.slo_rps", "1/s"),
    def("bench.unattributed_pct", "%"),
    def("bench.peak_rss_mb", "MiB"),
    def("bench.gen_lag_p90_ms", "ms"),
    def("obs.overhead_pct", "%"),
    def("obs.overhead_spread_pct", "%"),
];

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Records `value` under `name`, which must be declared in
    /// [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "undeclared metric {name}"
        );
        self.values.insert(name, value);
    }

    /// The `metrics` object for the declared set: every metric once, in
    /// declaration order. End-to-end metrics must all have been measured;
    /// an unmeasured per-layer metric is a layer the workload does not
    /// exercise and reads 0.
    pub fn to_json(&self, traced: bool) -> Result<String, String> {
        let defs = if traced { PER_LAYER } else { END_TO_END };
        let mut out = String::from("{");
        for (i, d) in defs.iter().enumerate() {
            let value = match self.values.get(d.name) {
                // Adding 0 turns the -0.0 of an empty float sum into 0.0.
                Some(&v) => v + 0.0,
                None if traced => 0.0,
                None => return Err(format!("metric {} was not measured", d.name)),
            };
            if !value.is_finite() {
                return Err(format!("metric {} is not finite: {value}", d.name));
            }
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                d.name, d.unit
            );
        }
        out.push('}');
        Ok(out)
    }
}

/// The result object, printed as the last line of a run.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics_json: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics_json}}}"
    )
}

/// What a result needs to be reproduced and compared: printed just
/// before the result line.
#[derive(Debug)]
pub struct Stamp<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub ops: usize,
    pub threads: usize,
    pub digest: String,
}

impl Stamp<'_> {
    pub fn to_json(&self, root: &std::path::Path) -> String {
        format!(
            "{{\"stamp\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"ops\": {}, \"threads\": {}, \"nproc\": {}, \"target\": \"{}\", \"git_rev\": \"{}\", \
             \"report_digest\": \"{}\"}}}}",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.trace),
            self.ops,
            self.threads,
            crate::host::nproc(),
            crate::host::target_cpu(),
            crate::host::git_rev(root),
            self.digest
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fase_obs::json::{parse, Value};

    /// `BENCHMARK.json` at the repository root declares the same metrics,
    /// in the same order and with the same units, as this file.
    #[test]
    fn declarations_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<[&str; 2]> = doc
                .get(key)
                .and_then(Value::as_array)
                .expect(key)
                .iter()
                .map(|m| ["name", "unit"].map(|f| m.get(f).and_then(Value::as_str).expect(f)))
                .collect();
            let declared: Vec<[&str; 2]> = defs.iter().map(|d| [d.name, d.unit]).collect();
            assert_eq!(listed, declared, "{key} differs from BENCHMARK.json");
        }
    }

    #[test]
    fn untraced_output_requires_every_end_to_end_metric() {
        let mut m = Metrics::default();
        m.set("p50_ms", 1.25);
        assert!(m.to_json(false).is_err());
        for d in END_TO_END {
            m.set(d.name, 2.0);
        }
        let json = m.to_json(false).expect("all measured");
        assert!(
            json.contains("\"p50_ms\": {\"value\": 2.0, \"unit\": \"ms\"}"),
            "{json}"
        );
        let traced = m.to_json(true).expect("per-layer defaults to 0");
        assert!(
            traced.contains("\"serve.slo_rps\": {\"value\": 0.0"),
            "{traced}"
        );
        let line = result_line(true, 3, 0, &json);
        let doc = parse(&line).expect("result line is JSON");
        assert_eq!(doc.get("attempted").and_then(Value::as_number), Some(3.0));
    }

    #[test]
    #[should_panic(expected = "undeclared metric")]
    fn undeclared_metrics_are_bugs() {
        Metrics::default().set("p99_ms", 1.0);
    }
}
