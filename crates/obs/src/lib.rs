//! fase-obs: dependency-free observability for the FASE pipeline.
//!
//! The campaign pipeline (synthesize → capture → average → score →
//! group → report) is instrumented with three primitives:
//!
//! - **spans** — hierarchical RAII timers ([`Recorder::span`]) whose
//!   slash-separated paths mirror call nesting per thread;
//! - **counters** — monotone event counts (`dsp.fft`,
//!   `specan.capture_retries`);
//! - **histograms** — power-of-two latency buckets for durations.
//!
//! A [`Recorder`] is a cheap cloneable handle to a shared sink. The
//! process-wide sink starts *disabled*: every instrumented call site
//! reduces to one relaxed atomic load (bench-verified at < 2% end-to-end
//! overhead), so instrumentation can stay on permanently in library
//! code. [`enable`] turns recording on (the CLI does this for
//! `--metrics-out` / `--timings`), and [`Recorder::detached`] gives
//! tests an isolated, always-on sink.
//!
//! Exports are deterministic: [`Snapshot::to_json`] emits stable
//! alphabetical key order and only durations/counts — never absolute
//! timestamps. The only wall-clock access in the workspace lives in this
//! crate's `clock` module behind the workspace's single `D-time` lint
//! waiver.

mod clock;
pub mod json;
mod sink;
mod snapshot;
mod span;
pub mod validate;

pub use snapshot::{HistogramSnapshot, Snapshot, SpanStat, SCHEMA_VERSION};
pub use span::SpanGuard;

use sink::Sink;
use std::sync::{Arc, OnceLock};

static GLOBAL: OnceLock<Arc<Sink>> = OnceLock::new();

fn global_sink() -> &'static Arc<Sink> {
    GLOBAL.get_or_init(|| Arc::new(Sink::new(false)))
}

/// Turn on the process-wide recorder.
///
/// Until this is called, every global [`Recorder`] handle is inert and
/// instrumented call sites cost a single relaxed atomic load.
pub fn enable() {
    global_sink().set_enabled(true);
}

/// Turn the process-wide recorder back off (recorded data is kept).
pub fn disable() {
    global_sink().set_enabled(false);
}

/// Whether the process-wide recorder is currently enabled.
#[must_use]
pub fn is_enabled() -> bool {
    global_sink().is_enabled()
}

/// Clear all metrics recorded so far by the process-wide recorder.
pub fn reset() {
    global_sink().reset();
}

/// Snapshot the process-wide recorder's metrics.
#[must_use]
pub fn snapshot() -> Snapshot {
    global_sink().snapshot()
}

/// Nanoseconds since the first clock access in this process (monotonic).
///
/// For call sites that time a region explicitly — e.g. to feed a
/// histogram via [`Recorder::observe_ns`] — without opening a span.
/// Only meaningful as a difference between two calls.
#[must_use]
pub fn monotonic_ns() -> u64 {
    clock::now_ns()
}

/// Handle for emitting metrics into a shared sink.
///
/// Cloning is cheap (an `Arc` bump). Every method is a no-op unless the
/// underlying sink exists *and* is enabled, so a `Recorder` can be
/// threaded through hot paths unconditionally.
#[derive(Clone, Debug)]
pub struct Recorder {
    sink: Option<Arc<Sink>>,
}

/// The default handle points at the process-wide sink, which starts
/// disabled — so `Recorder::default()` is inert until [`enable`] runs.
impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::global()
    }
}

impl Recorder {
    /// A recorder with no sink at all: strictly zero-cost, never records.
    #[must_use]
    pub fn noop() -> Recorder {
        Recorder { sink: None }
    }

    /// A handle to the process-wide sink (see [`enable`] / [`snapshot`]).
    #[must_use]
    pub fn global() -> Recorder {
        Recorder {
            sink: Some(Arc::clone(global_sink())),
        }
    }

    /// A fresh, isolated, always-enabled sink — for tests and benches
    /// that must not observe (or pollute) the process-wide metrics.
    #[must_use]
    pub fn detached() -> Recorder {
        Recorder {
            sink: Some(Arc::new(Sink::new(true))),
        }
    }

    fn active_sink(&self) -> Option<&Arc<Sink>> {
        self.sink.as_ref().filter(|s| s.is_enabled())
    }

    /// Whether calls on this handle currently record anything.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.active_sink().is_some()
    }

    /// Add `by` to the counter `name`.
    pub fn count(&self, name: &str, by: u64) {
        if let Some(sink) = self.active_sink() {
            sink.add_count(name, by);
        }
    }

    /// Add a `usize` amount to the counter `name` (saturating).
    pub fn count_usize(&self, name: &str, by: usize) {
        self.count(name, u64::try_from(by).unwrap_or(u64::MAX));
    }

    /// Add `by` to the counter `<name>.<label>`, sanitizing `label` so
    /// caller-supplied identifiers (e.g. tenant names arriving over the
    /// wire) cannot inject separator structure into the metric
    /// namespace: anything outside `[A-Za-z0-9_-]` becomes `_`, and an
    /// empty label becomes `_`. This is the per-tenant counter surface
    /// the serving layer exports request/rejection counts through.
    pub fn count_labeled(&self, name: &str, label: &str, by: u64) {
        if let Some(sink) = self.active_sink() {
            let mut key = String::with_capacity(name.len() + label.len() + 1);
            key.push_str(name);
            key.push('.');
            if label.is_empty() {
                key.push('_');
            }
            for c in label.chars() {
                if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                    key.push(c);
                } else {
                    key.push('_');
                }
            }
            sink.add_count(&key, by);
        }
    }

    /// Record a warning occurrence; rendered in the `warnings` section
    /// of the human report and exported as the counter `warn.<name>`.
    pub fn warn(&self, name: &str) {
        if let Some(sink) = self.active_sink() {
            sink.add_count(&format!("warn.{name}"), 1);
        }
    }

    /// Record one duration observation into the histogram `name`.
    pub fn observe_ns(&self, name: &str, ns: u64) {
        if let Some(sink) = self.active_sink() {
            sink.observe_ns(name, ns);
        }
    }

    /// Open a timing span; its duration is recorded when the returned
    /// guard drops. Nested spans on one thread build slash-separated
    /// paths (`campaign/capture/synth`).
    pub fn span(&self, name: &'static str) -> SpanGuard {
        SpanGuard::enter(self.sink.as_ref(), name)
    }

    /// Snapshot this recorder's sink (empty for [`Recorder::noop`]).
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        self.sink.as_ref().map(|s| s.snapshot()).unwrap_or_default()
    }

    /// Clear this recorder's sink.
    pub fn reset(&self) {
        if let Some(sink) = &self.sink {
            sink.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_records_nothing() {
        let rec = Recorder::noop();
        assert!(!rec.is_active());
        rec.count("x", 1);
        rec.observe_ns("h", 5);
        drop(rec.span("s"));
        assert_eq!(rec.snapshot(), Snapshot::default());
    }

    #[test]
    fn counters_and_histograms_aggregate() {
        let rec = Recorder::detached();
        rec.count("a.events", 2);
        rec.count("a.events", 3);
        rec.count_usize("b.items", 7);
        rec.observe_ns("lat", 0);
        rec.observe_ns("lat", 1);
        rec.observe_ns("lat", 1000);
        let snap = rec.snapshot();
        assert_eq!(snap.counters.get("a.events"), Some(&5));
        assert_eq!(snap.counters.get("b.items"), Some(&7));
        let lat = snap.histograms.get("lat").expect("histogram exists");
        assert_eq!(lat.count, 3);
        assert_eq!(lat.sum_ns, 1001);
        // 0 and 1 both land in b00; 1000 in b09 (512..1024).
        assert_eq!(lat.buckets.get("b00"), Some(&2));
        assert_eq!(lat.buckets.get("b09"), Some(&1));
    }

    #[test]
    fn labeled_counters_sanitize_hostile_labels() {
        let rec = Recorder::detached();
        rec.count_labeled("serve.tenant.requests", "acme-1", 2);
        rec.count_labeled("serve.tenant.requests", "acme-1", 1);
        rec.count_labeled("serve.tenant.requests", "a b\".c", 1);
        rec.count_labeled("serve.tenant.requests", "", 1);
        let snap = rec.snapshot();
        assert_eq!(snap.counters.get("serve.tenant.requests.acme-1"), Some(&3));
        assert_eq!(snap.counters.get("serve.tenant.requests.a_b__c"), Some(&1));
        assert_eq!(snap.counters.get("serve.tenant.requests._"), Some(&1));
    }

    #[test]
    fn nested_spans_build_slash_paths() {
        let rec = Recorder::detached();
        {
            let _outer = rec.span("outer");
            {
                let _mid = rec.span("mid");
                let _leaf = rec.span("leaf");
            }
            let _mid2 = rec.span("mid");
        }
        let snap = rec.snapshot();
        let paths: Vec<&str> = snap.spans.keys().map(String::as_str).collect();
        assert_eq!(paths, ["outer", "outer/mid", "outer/mid/leaf"]);
        assert_eq!(snap.spans.get("outer/mid").map(|s| s.count), Some(2));
        let outer = snap.spans.get("outer").expect("outer span");
        let mid = snap.spans.get("outer/mid").expect("mid span");
        assert!(mid.total_ns <= outer.total_ns);
        assert!(mid.min_ns <= mid.max_ns && mid.max_ns <= mid.total_ns);
    }

    #[test]
    fn inactive_guard_does_not_perturb_nesting() {
        let rec = Recorder::detached();
        let _outer = rec.span("outer");
        {
            // A disabled recorder's guard must not push onto the stack.
            let _ghost = Recorder::noop().span("ghost");
            let _leaf = rec.span("leaf");
        }
        drop(_outer);
        let snap = rec.snapshot();
        assert!(snap.spans.contains_key("outer/leaf"), "{:?}", snap.spans);
        assert!(!snap.spans.keys().any(|k| k.contains("ghost")));
    }

    #[test]
    fn default_recorder_is_the_disabled_global() {
        // The global sink defaults to disabled, so a default handle is
        // inert (other tests that enable the global run in their own
        // processes' threads — never enable it here).
        let rec = Recorder::default();
        assert_eq!(rec.is_active(), is_enabled());
    }

    #[test]
    fn exported_json_passes_the_checked_in_schema() {
        let rec = Recorder::detached();
        {
            let _campaign = rec.span("campaign");
            let _capture = rec.span("capture");
            rec.count("dsp.fft", 42);
            rec.observe_ns("specan.capture_ns", 1234);
            rec.warn("core.heuristic.search_window_clamped");
        }
        let json = rec.snapshot().to_json();
        let schema = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../scripts/metrics.schema.json"
        ))
        .expect("schema file is checked in");
        validate::validate_metrics(&json, &schema)
            .unwrap_or_else(|errors| panic!("export violates schema:\n{}", errors.join("\n")));
        // Stable shape: alphabetical top-level keys.
        let idx = |needle: &str| json.find(needle).expect(needle);
        assert!(idx("\"counters\"") < idx("\"histograms\""));
        assert!(idx("\"histograms\"") < idx("\"schema\""));
        assert!(idx("\"schema\"") < idx("\"spans\""));
    }

    #[test]
    fn render_tree_shows_spans_counters_and_warnings() {
        let rec = Recorder::detached();
        {
            let _campaign = rec.span("campaign");
            let _reduce = rec.span("reduce");
        }
        rec.count("dsp.fft", 480);
        rec.warn("core.heuristic.search_window_clamped");
        let tree = rec.snapshot().render_tree();
        assert!(tree.contains("timings"), "{tree}");
        assert!(tree.contains("campaign"), "{tree}");
        assert!(tree.contains("    reduce"), "indented child: {tree}");
        assert!(tree.contains("dsp.fft"), "{tree}");
        assert!(tree.contains("warnings"), "{tree}");
        assert!(
            tree.contains("core.heuristic.search_window_clamped"),
            "{tree}"
        );
    }

    #[test]
    fn json_parser_roundtrips_and_rejects() {
        let v = json::parse(r#"{"a": [1, 2.5, "x\nA"], "b": {"c": true, "d": null}}"#)
            .expect("valid document");
        assert_eq!(
            v.get("a").and_then(|a| a.as_array()).map(<[_]>::len),
            Some(3)
        );
        assert_eq!(
            v.get("a")
                .and_then(|a| a.as_array())
                .and_then(|a| a.get(2))
                .and_then(json::Value::as_str),
            Some("x\nA")
        );
        assert!(json::parse("{").is_err());
        assert!(json::parse("[1,]").is_err());
        assert!(json::parse("1e999").is_err(), "non-finite number");
        assert!(json::parse("{} trailing").is_err());
    }

    #[test]
    fn validator_flags_structural_violations() {
        let schema = r#"{
            "required": ["counters", "spans"],
            "rules": ["sorted-keys", "finite-numbers", "monotone-span-nesting"],
            "schema_version": 1
        }"#;
        let unsorted = r#"{"spans": {}, "counters": {}, "schema": {"version": 1}}"#;
        let errs = validate::validate_metrics(unsorted, schema).expect_err("unsorted keys");
        assert!(
            errs.iter().any(|e| e.contains("not strictly sorted")),
            "{errs:?}"
        );

        let bad_nesting = r#"{
            "counters": {},
            "schema": {"version": 1},
            "spans": {
                "campaign": { "count": 1, "max_ns": 10, "min_ns": 10, "total_ns": 10 },
                "campaign/reduce": { "count": 1, "max_ns": 20, "min_ns": 20, "total_ns": 20 }
            }
        }"#;
        let errs = validate::validate_metrics(bad_nesting, schema).expect_err("bad nesting");
        assert!(
            errs.iter().any(|e| e.contains("exceeds parent")),
            "{errs:?}"
        );

        let bad_version = r#"{"counters": {}, "schema": {"version": 2}, "spans": {}}"#;
        let errs = validate::validate_metrics(bad_version, schema).expect_err("version");
        assert!(
            errs.iter().any(|e| e.contains("version mismatch")),
            "{errs:?}"
        );

        let missing = r#"{"counters": {}, "schema": {"version": 1}}"#;
        let errs = validate::validate_metrics(missing, schema).expect_err("missing key");
        assert!(errs.iter().any(|e| e.contains("'spans'")), "{errs:?}");

        let frac_counter = r#"{"counters": {"x": 1.5}, "schema": {"version": 1}, "spans": {}}"#;
        let errs = validate::validate_metrics(frac_counter, schema).expect_err("fractional");
        assert!(
            errs.iter().any(|e| e.contains("non-negative integer")),
            "{errs:?}"
        );
    }
}
