//! Closed-loop runner: one caller issues the next op as soon as the
//! previous one returns, for a fixed wall-clock time.
//!
//! An untraced run reports the end-to-end metrics. A traced run
//! alternates untraced and traced ops: the traced ones feed the layer
//! ledger, and the pair of medians gives the tracing overhead.

use crate::check::Tally;
use crate::ledger;
use crate::report::Metrics;
use crate::stats;
use std::time::Instant;

/// Set-up rounds per run; `setup_s` is their median.
pub const SETUP_ROUNDS: usize = 3;

/// A run goes on past its time until its median (each of a traced run's
/// two medians) has ten samples beyond it, but never past `MAX_SECONDS`.
const MIN_OPS: usize = 2 * stats::MIN_BEYOND;
const MAX_SECONDS: f64 = 120.0;

fn more(start: Instant, seconds: f64, ops: usize, min_ops: usize) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    elapsed < MAX_SECONDS && (elapsed < seconds || ops < min_ops)
}

/// A closed-loop workload.
pub trait Workload {
    /// One set-up round: everything the timed ops need before they start
    /// (warm-up ops, populated cache directories). Rounds are timed.
    fn setup_round(&mut self, round: usize) -> Result<(), String>;

    /// Op `i`: any untimed preparation, the timed call into the program,
    /// then the untimed output check into `tally`. Returns the timed
    /// wall time in ns.
    fn op(&mut self, i: usize, tally: &mut Tally) -> f64;
}

/// Times the set-up rounds and returns their median, in seconds.
fn setup(workload: &mut dyn Workload) -> Result<f64, String> {
    let mut rounds = Vec::with_capacity(SETUP_ROUNDS);
    for round in 0..SETUP_ROUNDS {
        let t0 = Instant::now();
        workload.setup_round(round)?;
        rounds.push(t0.elapsed().as_secs_f64());
    }
    Ok(fase_dsp::stats::median(&rounds))
}

/// Runs ops for `seconds` and records the run's metrics. `pool_threads`
/// is the capture pool size of each campaign the ops run.
pub fn run(
    workload: &mut dyn Workload,
    seconds: f64,
    traced: bool,
    pool_threads: usize,
    metrics: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), String> {
    let setup_s = setup(workload)?;
    let start = Instant::now();
    if !traced {
        let cpu0 = crate::host::cpu_ms()?;
        let mut walls_ms = Vec::new();
        while more(start, seconds, walls_ms.len(), MIN_OPS) {
            walls_ms.push(workload.op(walls_ms.len(), tally) / 1e6);
        }
        let cpu_ms = crate::host::cpu_ms()? - cpu0;
        metrics.set("setup_s", setup_s);
        metrics.set("p50_ms", stats::percentile(&walls_ms, 50.0)?);
        metrics.set("cpu_ms_per_op", cpu_ms / walls_ms.len() as f64);
        return Ok(());
    }

    // Even ops run untraced, odd ops traced; only traced ops reach the
    // recorder, so its snapshot is the ledger of exactly those ops.
    fase_obs::reset();
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut i = 0;
    while more(start, seconds, plain_ms.len().min(traced_ms.len()), MIN_OPS) {
        if i % 2 == 1 {
            fase_obs::enable();
            traced_ms.push(workload.op(i, tally) / 1e6);
            fase_obs::disable();
        } else {
            plain_ms.push(workload.op(i, tally) / 1e6);
        }
        i += 1;
    }
    let snap = fase_obs::snapshot();
    ledger::record_layers(metrics, &snap, traced_ms.len(), pool_threads);
    let traced_wall_ns = traced_ms.iter().sum::<f64>() * 1e6;
    metrics.set(
        "bench.unattributed_pct",
        ledger::unattributed_pct(traced_wall_ns, ledger::root_ns(&snap, ledger::TOP_LEVEL)),
    );
    record_overhead(metrics, &plain_ms, &traced_ms)?;
    metrics.set("bench.peak_rss_mb", crate::host::peak_rss_mb()?);
    Ok(())
}

/// Tracing overhead (traced median over untraced median) and the
/// untraced ops' own quartile spread, both in percent: an overhead
/// smaller than the spread is not resolved by this run.
pub fn record_overhead(
    metrics: &mut Metrics,
    plain_ms: &[f64],
    traced_ms: &[f64],
) -> Result<(), String> {
    let plain = stats::percentile(plain_ms, 50.0)?;
    let traced = stats::percentile(traced_ms, 50.0)?;
    metrics.set("obs.overhead_pct", (traced / plain - 1.0) * 100.0);
    metrics.set(
        "obs.overhead_spread_pct",
        stats::relative_spread(plain_ms).unwrap_or(0.0) * 100.0,
    );
    Ok(())
}
