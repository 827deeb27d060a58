//! `perf compare <before.jsonl> <after.jsonl>`: compares two sets of
//! untraced runs, metric by metric and workload by workload, under the
//! bounds `BENCHMARK.json` fixes.
//!
//! Each input holds the last two lines of every run (stamp, then result),
//! as `run.sh` collects them. Each workload first gets a `failed_frac`
//! row: failed ops over attempted ops across its runs, where a run whose
//! result is not `correct` counts at least one failed op. Its bound is
//! absolute 0: any rise is `worse than bound`, however fast the answers.
//! For every end-to-end metric the verdict is `within bound`, `worse than
//! bound` (the after-median is worse than the before-median by more than
//! the bound), or `unresolved` when either side's quartile spread is
//! wider than the bound, unless every after-run reads better than every
//! before-run. No verdict claims a gain.

use crate::stats;
use fase_obs::json::{self, Value};
use std::collections::BTreeMap;

/// A metric's comparison rule from `BENCHMARK.json`.
#[derive(Debug)]
pub struct Rule {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// The untraced runs of one workload.
#[derive(Debug, Default)]
pub struct WorkloadRuns {
    /// Each metric's value in every run.
    pub metrics: BTreeMap<String, Vec<f64>>,
    /// Ops attempted and failed, summed over the runs.
    pub attempted: f64,
    pub failed: f64,
}

impl WorkloadRuns {
    fn failed_frac(&self) -> f64 {
        if self.attempted > 0.0 {
            self.failed / self.attempted
        } else {
            1.0
        }
    }
}

/// Untraced runs by workload.
pub type Runs = BTreeMap<String, WorkloadRuns>;

/// The end-to-end rules of a `BENCHMARK.json` document.
pub fn rules(benchmark_json: &str) -> Result<Vec<Rule>, String> {
    let doc = json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    doc.get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let field = |key: &str| m.get(key).ok_or(format!("end_to_end entry without {key}"));
            Ok(Rule {
                name: field("name")?.as_str().unwrap_or_default().to_owned(),
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_number().ok_or("non-numeric bound")?,
            })
        })
        .collect()
}

/// Untraced results of a run file, grouped by the workload of the stamp
/// line preceding each.
pub fn parse_runs(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    let mut stamp: Option<(String, bool)> = None;
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        if let Some(s) = doc.get("stamp") {
            let workload = s
                .get("workload")
                .and_then(Value::as_str)
                .ok_or("stamp without workload")?;
            let traced = s.get("trace").and_then(Value::as_number) == Some(1.0);
            stamp = Some((workload.to_owned(), traced));
            continue;
        }
        let (workload, traced) = stamp
            .take()
            .ok_or_else(|| format!("line {}: result without a stamp", n + 1))?;
        if traced {
            continue;
        }
        let field = |key: &str| {
            doc.get(key)
                .ok_or_else(|| format!("line {}: no {key}", n + 1))
        };
        let metrics = field("metrics")?
            .as_object()
            .ok_or_else(|| format!("line {}: metrics is not an object", n + 1))?;
        let count = |key: &str| {
            field(key)?
                .as_number()
                .ok_or_else(|| format!("line {}: {key} is not a number", n + 1))
        };
        let correct = *field("correct")? == Value::Bool(true);
        let slot = runs.entry(workload).or_default();
        slot.attempted += count("attempted")?;
        slot.failed += if correct {
            count("failed")?
        } else {
            count("failed")?.max(1.0)
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_number) {
                slot.metrics.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(runs)
}

/// One row of the comparison.
#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub before: f64,
    pub after: f64,
    /// Change in the "worse" direction (positive = worse): relative for
    /// a metric, absolute for `failed_frac`.
    pub worse_by: f64,
    pub spread: f64,
    pub bound: f64,
    pub verdict: &'static str,
}

/// Compares `after` against `before` under `rules`.
pub fn compare(rules: &[Rule], before: &Runs, after: &Runs) -> Vec<Row> {
    let mut rows = Vec::new();
    for (workload, before_runs) in before {
        let Some(after_runs) = after.get(workload) else {
            continue;
        };
        let (fa, fb) = (before_runs.failed_frac(), after_runs.failed_frac());
        rows.push(Row {
            workload: workload.clone(),
            metric: "failed_frac".to_owned(),
            before: fa,
            after: fb,
            worse_by: fb - fa,
            spread: 0.0,
            bound: 0.0,
            verdict: if fb > fa {
                "worse than bound"
            } else {
                "within bound"
            },
        });
        for rule in rules {
            let (Some(a), Some(b)) = (
                before_runs.metrics.get(&rule.name),
                after_runs.metrics.get(&rule.name),
            ) else {
                continue;
            };
            let (ma, mb) = (fase_dsp::stats::median(a), fase_dsp::stats::median(b));
            let sign = if rule.lower_is_better { 1.0 } else { -1.0 };
            let worse_by = if ma == 0.0 {
                0.0
            } else {
                sign * (mb - ma) / ma
            };
            let spread = stats::relative_spread(a)
                .unwrap_or(f64::INFINITY)
                .max(stats::relative_spread(b).unwrap_or(f64::INFINITY));
            let all_better = b.iter().all(|&x| a.iter().all(|&y| sign * (x - y) < 0.0));
            let verdict = if spread > rule.bound && !all_better {
                "unresolved"
            } else if worse_by > rule.bound {
                "worse than bound"
            } else {
                "within bound"
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: rule.name.clone(),
                before: ma,
                after: mb,
                worse_by,
                spread,
                bound: rule.bound,
                verdict,
            });
        }
    }
    rows
}

/// The `compare` subcommand; `Ok(false)` when a metric got worse than its
/// bound.
pub fn main(args: &[String]) -> Result<bool, String> {
    let [before, after] = args else {
        return Err("usage: perf compare <before.jsonl> <after.jsonl>".to_owned());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"));
    let rules = rules(&read(&"BENCHMARK.json".to_owned())?)?;
    let rows = compare(
        &rules,
        &parse_runs(&read(before)?)?,
        &parse_runs(&read(after)?)?,
    );
    if rows.is_empty() {
        return Err("no workload has untraced runs in both files".to_owned());
    }
    println!(
        "{:<11} {:<14} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "before", "after", "worse%", "spread%", "bound%"
    );
    for r in &rows {
        println!(
            "{:<11} {:<14} {:>12.4} {:>12.4} {:>8.2} {:>8.2} {:>6.1}  {}",
            r.workload,
            r.metric,
            r.before,
            r.after,
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            r.verdict
        );
    }
    Ok(rows.iter().all(|r| r.verdict != "worse than bound"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs of `campaign` with these p50s; the first `bad` runs report
    /// `(correct, failed)` of `(false, 1)` out of 9 ops.
    fn file_with_failures(p50s: &[f64], bad: usize) -> String {
        p50s.iter()
            .enumerate()
            .map(|(i, v)| {
                let (correct, failed) = if i < bad { (false, 1) } else { (true, 0) };
                format!(
                    "{{\"stamp\": {{\"workload\": \"campaign\", \"trace\": 0}}}}\n\
                     {{\"correct\": {correct}, \"attempted\": 9, \"failed\": {failed}, \"metrics\": \
                     {{\"p50_ms\": {{\"value\": {v}, \"unit\": \"ms\"}}}}}}\n"
                )
            })
            .collect()
    }

    fn rows(before: &str, after: &str) -> Vec<Row> {
        let rules = rules(r#"{"end_to_end": [{"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}"#)
            .expect("rules");
        compare(
            &rules,
            &parse_runs(before).expect("before"),
            &parse_runs(after).expect("after"),
        )
    }

    /// The `p50_ms` verdict of two sets of correct runs.
    fn verdict(before: &[f64], after: &[f64]) -> &'static str {
        let r = rows(
            &file_with_failures(before, 0),
            &file_with_failures(after, 0),
        );
        assert_eq!(r.len(), 2);
        assert_eq!(
            (r[0].metric.as_str(), r[0].verdict),
            ("failed_frac", "within bound")
        );
        r[1].verdict
    }

    #[test]
    fn verdicts_follow_the_bounds() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(verdict(&steady, &steady), "within bound");
        let slower: Vec<f64> = steady.iter().map(|v| v * 1.2).collect();
        assert_eq!(verdict(&steady, &slower), "worse than bound");
        // Quartile spread of 40% against a 10% bound: too noisy to call.
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(verdict(&noisy, &slower), "unresolved");
        // ...unless every after-run beats every before-run.
        let faster = [50.0, 51.0, 52.0, 53.0, 54.0];
        assert_eq!(verdict(&noisy, &faster), "within bound");
    }

    #[test]
    fn more_failed_ops_are_worse_however_fast() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let faster: Vec<f64> = steady.iter().map(|v| v * 0.5).collect();
        let good = file_with_failures(&steady, 0);
        let r = rows(&good, &file_with_failures(&faster, 1));
        assert_eq!(r[0].metric, "failed_frac");
        assert_eq!(r[0].verdict, "worse than bound");
        assert!((r[0].after - 1.0 / 45.0).abs() < 1e-12);
        assert_eq!(r[1].verdict, "within bound");
        // A result that is not correct counts a failed op even if its
        // failed count says 0.
        let unflagged = good.replacen("\"correct\": true", "\"correct\": false", 1);
        assert_eq!(rows(&good, &unflagged)[0].verdict, "worse than bound");
        // As many failures before as after is no regression.
        let both = file_with_failures(&steady, 1);
        assert_eq!(rows(&both, &both)[0].verdict, "within bound");
    }

    #[test]
    fn traced_runs_and_unstamped_results_are_handled() {
        let traced = "{\"stamp\": {\"workload\": \"serve\", \"trace\": 1}}\n\
                      {\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {}}\n";
        assert!(parse_runs(traced).expect("parses").is_empty());
        assert!(parse_runs("{\"correct\": true, \"metrics\": {}}").is_err());
        let no_counts = "{\"stamp\": {\"workload\": \"serve\", \"trace\": 0}}\n\
                         {\"correct\": true, \"metrics\": {}}\n";
        assert!(parse_runs(no_counts).is_err());
    }
}
