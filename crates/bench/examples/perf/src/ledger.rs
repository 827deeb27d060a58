//! The per-layer ledger: turns the spans and counters the program records
//! through `fase_obs` into per-op layer metrics.
//!
//! Span paths nest per thread (`specan.sweep/specan.sweep_band/campaign`
//! on the caller, `capture/synth` on a pool worker), so layers are found
//! by leaf name or by `parent/leaf` suffix, and a layer's self time is
//! its span total minus the totals of its child spans.

use crate::report::Metrics;
use fase_obs::Snapshot;

/// Spans that start on the thread that issued an op: whatever op wall
/// time they do not cover is reported as unattributed.
pub const TOP_LEVEL: &[&str] = &["campaign", "analyze", "specan.sweep"];

/// Total nanoseconds of every span whose path ends in `suffix` (a leaf
/// name, or a `parent/leaf` pair).
pub fn span_ns(snap: &Snapshot, suffix: &str) -> f64 {
    snap.spans
        .iter()
        .filter(|(path, _)| {
            path.as_str() == suffix
                || path
                    .strip_suffix(suffix)
                    .is_some_and(|head| head.ends_with('/'))
        })
        .map(|(_, stat)| stat.total_ns as f64)
        .sum()
}

/// Total nanoseconds of root spans (no parent on their thread) named in
/// `names`.
pub fn root_ns(snap: &Snapshot, names: &[&str]) -> f64 {
    names
        .iter()
        .filter_map(|name| snap.spans.get(*name))
        .map(|stat| stat.total_ns as f64)
        .sum()
}

fn counter(snap: &Snapshot, name: &str) -> f64 {
    snap.counters.get(name).copied().unwrap_or(0) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Share of `wall_ns` not covered by `attributed_ns`, in percent.
pub fn unattributed_pct(wall_ns: f64, attributed_ns: f64) -> f64 {
    ratio(wall_ns - attributed_ns, wall_ns) * 100.0
}

/// Records the layer metrics of `ops` traced ops into `out`. `pool_threads`
/// is the capture pool size of each campaign, the denominator of pool
/// utilisation.
pub fn record_layers(out: &mut Metrics, snap: &Snapshot, ops: usize, pool_threads: usize) {
    let per_op_ms = |ns: f64| ratio(ns, ops as f64) / 1e6;
    let per_op = |count: f64| ratio(count, ops as f64);

    let synth = span_ns(snap, "synth");
    let transform = span_ns(snap, "transform");
    let capture = span_ns(snap, "capture");
    let capture_children = span_ns(snap, "capture/synth") + span_ns(snap, "capture/transform");
    let campaign = span_ns(snap, "campaign");
    let band = span_ns(snap, "specan.sweep_band");
    let band_children =
        span_ns(snap, "specan.sweep_band/campaign") + span_ns(snap, "specan.sweep_band/analyze");
    let sweep = span_ns(snap, "specan.sweep");
    let sweep_children = span_ns(snap, "specan.sweep/specan.sweep_band");

    out.set("emsim.synth_ms", per_op_ms(synth));
    out.set(
        "emsim.samples_per_op",
        per_op(counter(snap, "emsim.samples_rendered")),
    );
    out.set("dsp.transform_ms", per_op_ms(transform));
    out.set(
        "dsp.fft_points_per_op",
        per_op(counter(snap, "dsp.fft_points")),
    );
    let plan_hits = counter(snap, "dsp.plan_cache_hits");
    out.set(
        "dsp.plan_cache_hit_ratio",
        ratio(
            plan_hits,
            plan_hits + counter(snap, "dsp.plan_cache_misses"),
        ),
    );
    out.set(
        "specan.capture_self_ms",
        per_op_ms(capture - capture_children),
    );
    out.set(
        "specan.captures_per_op",
        per_op(counter(snap, "specan.captures")),
    );
    out.set(
        "specan.pool_util",
        ratio(capture, pool_threads as f64 * campaign),
    );
    out.set(
        "specan.reduce_ms",
        per_op_ms(span_ns(snap, "campaign/reduce")),
    );
    out.set("specan.campaign_ms", per_op_ms(campaign));
    out.set("specan.cache_ms", per_op_ms(band - band_children));
    let cache_hits = counter(snap, "specan.cache_hits");
    out.set(
        "specan.cache_hit_ratio",
        ratio(
            cache_hits,
            cache_hits + counter(snap, "specan.cache_misses"),
        ),
    );
    out.set("specan.sweep_self_ms", per_op_ms(sweep - sweep_children));
    out.set("core.score_ms", per_op_ms(span_ns(snap, "analyze/score")));
    out.set("core.detect_ms", per_op_ms(span_ns(snap, "analyze/detect")));
    out.set("core.group_ms", per_op_ms(span_ns(snap, "analyze/group")));
    out.set(
        "core.bins_scored_per_op",
        per_op(counter(snap, "core.heuristic.bins_scored")),
    );
    out.set(
        "core.detections_per_op",
        per_op(counter(snap, "core.detections")),
    );
    out.set(
        "core.carriers_per_op",
        per_op(counter(snap, "core.carriers")),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use fase_obs::Recorder;
    use std::time::Duration;

    #[test]
    fn self_times_subtract_children_and_suffixes_respect_path_segments() {
        let rec = Recorder::detached();
        {
            let _band = rec.span("specan.sweep_band");
            {
                let _campaign = rec.span("campaign");
                std::thread::sleep(Duration::from_millis(2));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        {
            // A leaf whose name merely ends like another must not match.
            let _other = rec.span("precampaign");
        }
        let snap = rec.snapshot();
        let band = span_ns(&snap, "specan.sweep_band");
        let campaign = span_ns(&snap, "campaign");
        assert_eq!(campaign, span_ns(&snap, "specan.sweep_band/campaign"));
        assert!(
            campaign >= 2e6 && band - campaign >= 2e6,
            "{band} {campaign}"
        );
        assert_eq!(root_ns(&snap, &["campaign"]), 0.0, "campaign is nested");
        assert_eq!(root_ns(&snap, &["specan.sweep_band"]), band);
    }

    #[test]
    fn unattributed_share() {
        assert_eq!(unattributed_pct(100.0, 96.0), 4.0);
        assert_eq!(unattributed_pct(0.0, 0.0), 0.0);
    }
}
