//! Point-in-time view of a recorder's metrics plus its export formats:
//! deterministic JSON (stable key order, durations only, no timestamps)
//! and a human-readable span/counter tree for `--timings`.

use crate::json::quote;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Version stamped into the `schema` object of every exported document.
pub const SCHEMA_VERSION: u32 = 1;

/// Immutable copy of a recorder's aggregated metrics.
///
/// All maps are sorted, so every export derived from a snapshot has a
/// deterministic key order. Values are event counts and elapsed-duration
/// statistics — never absolute timestamps.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Monotone event counts keyed by dotted name (`dsp.fft`). Names
    /// under `warn.` are surfaced as warnings in the human report, and
    /// `span.<name>.<key>.<value>` entries are span field occurrences.
    pub counters: BTreeMap<String, u64>,
    /// Last-written instantaneous values; always finite.
    pub gauges: BTreeMap<String, f64>,
    /// Power-of-two latency histograms keyed by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Aggregated timing spans keyed by slash-separated path
    /// (`campaign/capture/synth`).
    pub spans: BTreeMap<String, SpanStat>,
}

/// Exported histogram: populated power-of-two buckets plus totals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed durations in nanoseconds.
    pub sum_ns: u64,
    /// Non-empty buckets keyed `b00`..`b63`; `bNN` covers
    /// `[2^NN, 2^(NN+1))` nanoseconds (zero lands in `b00`).
    pub buckets: BTreeMap<String, u64>,
}

/// Aggregated statistics for one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Times the span was entered and exited.
    pub count: u64,
    /// Total nanoseconds across all entries.
    pub total_ns: u64,
    /// Shortest single entry in nanoseconds.
    pub min_ns: u64,
    /// Longest single entry in nanoseconds.
    pub max_ns: u64,
}

impl Snapshot {
    /// Render the snapshot as deterministic JSON.
    ///
    /// Top-level keys are `counters`, `gauges`, `histograms`, `schema`,
    /// `spans` — alphabetical, like every nested object. Two runs of the
    /// same campaign produce the same key set in the same order; only the
    /// measured `*_ns` duration values differ.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        push_key(&mut out, 1, "counters");
        push_u64_map(&mut out, 1, &self.counters);
        out.push_str(",\n");
        push_key(&mut out, 1, "gauges");
        push_f64_map(&mut out, 1, &self.gauges);
        out.push_str(",\n");
        push_key(&mut out, 1, "histograms");
        if self.histograms.is_empty() {
            out.push_str("{}");
        } else {
            out.push_str("{\n");
            for (i, (name, h)) in self.histograms.iter().enumerate() {
                push_key(&mut out, 2, name);
                out.push_str("{\n");
                push_key(&mut out, 3, "buckets");
                push_u64_map(&mut out, 3, &h.buckets);
                out.push_str(",\n");
                push_key(&mut out, 3, "count");
                let _ = writeln!(out, "{},", h.count);
                push_key(&mut out, 3, "sum_ns");
                let _ = writeln!(out, "{}", h.sum_ns);
                push_indent(&mut out, 2);
                out.push('}');
                out.push_str(if i + 1 < self.histograms.len() {
                    ",\n"
                } else {
                    "\n"
                });
            }
            push_indent(&mut out, 1);
            out.push('}');
        }
        out.push_str(",\n");
        push_key(&mut out, 1, "schema");
        let _ = write!(
            out,
            "{{\n    \"name\": \"fase-metrics\",\n    \"version\": {SCHEMA_VERSION}\n  }}"
        );
        out.push_str(",\n");
        push_key(&mut out, 1, "spans");
        if self.spans.is_empty() {
            out.push_str("{}");
        } else {
            out.push_str("{\n");
            for (i, (path, stat)) in self.spans.iter().enumerate() {
                push_key(&mut out, 2, path);
                let _ = write!(
                    out,
                    "{{ \"count\": {}, \"max_ns\": {}, \"min_ns\": {}, \"total_ns\": {} }}",
                    stat.count, stat.max_ns, stat.min_ns, stat.total_ns
                );
                out.push_str(if i + 1 < self.spans.len() {
                    ",\n"
                } else {
                    "\n"
                });
            }
            push_indent(&mut out, 1);
            out.push('}');
        }
        out.push_str("\n}\n");
        out
    }

    /// Render the human `--timings` report: an indented span tree (calls
    /// and total wall time per path), then counters, then warnings.
    #[must_use]
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        if !self.spans.is_empty() {
            out.push_str("timings (calls, total wall time per span)\n");
            // BTreeMap order puts every parent path immediately before
            // its children, so a flat walk renders the tree.
            for (path, stat) in &self.spans {
                let depth = path.matches('/').count();
                let name = path.rsplit('/').next().unwrap_or(path);
                let label = format!("{}{}", "  ".repeat(depth + 1), name);
                let _ = writeln!(
                    out,
                    "{label:<34} {count:>7} \u{d7}  {time:>10}",
                    count = stat.count,
                    time = fmt_ns(stat.total_ns)
                );
            }
        }
        let plain: Vec<(&String, &u64)> = self
            .counters
            .iter()
            .filter(|(name, _)| !name.starts_with("warn."))
            .collect();
        if !plain.is_empty() {
            out.push_str("counters\n");
            for (name, value) in plain {
                let _ = writeln!(out, "  {name:<40} {value:>12}");
            }
        }
        let warnings: Vec<(&String, &u64)> = self
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("warn."))
            .collect();
        if !warnings.is_empty() {
            out.push_str("warnings\n");
            for (name, value) in warnings {
                let stripped = name.strip_prefix("warn.").unwrap_or(name);
                let _ = writeln!(out, "  {stripped:<40} {value:>12}");
            }
        }
        if out.is_empty() {
            out.push_str("no metrics recorded (was the recorder enabled?)\n");
        }
        out
    }
}

fn push_indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn push_key(out: &mut String, level: usize, key: &str) {
    push_indent(out, level);
    out.push_str(&quote(key));
    out.push_str(": ");
}

fn push_u64_map(out: &mut String, level: usize, map: &BTreeMap<String, u64>) {
    if map.is_empty() {
        out.push_str("{}");
        return;
    }
    out.push_str("{\n");
    for (i, (key, value)) in map.iter().enumerate() {
        push_key(out, level + 1, key);
        let _ = write!(out, "{value}");
        out.push_str(if i + 1 < map.len() { ",\n" } else { "\n" });
    }
    push_indent(out, level);
    out.push('}');
}

fn push_f64_map(out: &mut String, level: usize, map: &BTreeMap<String, f64>) {
    if map.is_empty() {
        out.push_str("{}");
        return;
    }
    out.push_str("{\n");
    for (i, (key, value)) in map.iter().enumerate() {
        push_key(out, level + 1, key);
        // Finite f64 Display output is always a valid JSON number.
        let _ = write!(out, "{value}");
        out.push_str(if i + 1 < map.len() { ",\n" } else { "\n" });
    }
    push_indent(out, level);
    out.push('}');
}

fn fmt_ns(ns: u64) -> String {
    let v = ns as f64;
    if v >= 1e9 {
        format!("{:.2} s", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2} ms", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.2} \u{b5}s", v / 1e3)
    } else {
        format!("{ns} ns")
    }
}
