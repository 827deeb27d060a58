//! `perf`: the FASE benchmark. One run measures one workload:
//!
//! ```text
//! perf --workload <campaign|sweep_cold|sweep_warm|serve> --seed <n> --seconds <s> --trace <0|1>
//! perf compare <before.jsonl> <after.jsonl>
//! perf pool <campaign|sweep|serve>
//! ```
//!
//! A run prints a stamp line and then, as its last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics untraced, the per-layer ledger traced. It exits 1 when an
//! output check failed and 2 when it could not measure (a refused
//! percentile, a failed set-up, bad arguments). See README.md.

mod check;
mod closedloop;
mod compare;
mod host;
mod ledger;
mod openloop;
mod pool;
mod report;
mod serve;
mod stats;
mod workloads;

use check::Tally;
use report::{Metrics, Stamp};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: perf --workload <campaign|sweep_cold|sweep_warm|serve> \
                     --seed <n> --seconds <s> --trace <0|1>\n       perf compare <before.jsonl> <after.jsonl>\n       \
                     perf pool <campaign|sweep|serve>";

/// The workloads, by the names `BENCHMARK.json` lists.
const WORKLOADS: &[&str] = &["campaign", "sweep_cold", "sweep_warm", "serve"];

#[derive(Debug)]
struct RunArgs {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced,
    })
}

/// A scratch directory inside the checkout (under the git-ignored
/// `target/`), removed when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Result<Scratch, String> {
        let root = std::env::current_dir().map_err(|e| format!("current dir: {e}"))?;
        let dir = root
            .join("target")
            .join("perf-work")
            .join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one workload; returns its tally and campaign pool size.
fn measure(args: &RunArgs, work: &Path, metrics: &mut Metrics) -> Result<(Tally, usize), String> {
    use pool::Draw;
    use workloads::{Campaign, Sweep, CAMPAIGN_MUST_FIND, POOL_THREADS, SWEEP_MUST_FIND};
    let closed =
        |w: &mut dyn closedloop::Workload, must_find: check::MustFind, metrics: &mut Metrics| {
            let mut tally = Tally::new(must_find);
            closedloop::run(
                w,
                args.seconds,
                args.traced,
                POOL_THREADS,
                metrics,
                &mut tally,
            )?;
            Ok((tally, POOL_THREADS))
        };
    let draw = Draw::new(args.seed);
    match args.workload {
        "campaign" => closed(&mut Campaign::new(draw)?, CAMPAIGN_MUST_FIND, metrics),
        "sweep_cold" => closed(
            &mut Sweep::new(draw, false, work.to_path_buf()),
            SWEEP_MUST_FIND,
            metrics,
        ),
        "sweep_warm" => closed(
            &mut Sweep::new(draw, true, work.to_path_buf()),
            SWEEP_MUST_FIND,
            metrics,
        ),
        _ => {
            let tally = serve::run(args.seed, args.seconds, args.traced, work, metrics)?;
            Ok((tally, serve::CAMPAIGN_THREADS))
        }
    }
}

fn run(args: &RunArgs) -> Result<bool, String> {
    let root = std::env::current_dir().map_err(|e| format!("current dir: {e}"))?;
    let work = Scratch::new(args.workload)?;
    let mut metrics = Metrics::default();
    let (tally, threads) = measure(args, &work.0, &mut metrics)?;
    let metrics_json = metrics.to_json(args.traced)?;
    let correct = tally.failed == 0;
    for reason in &tally.reasons {
        eprintln!("perf: check failed: {reason}");
    }
    eprintln!(
        "perf: {} seed {}: {} ops, failed_frac {}, report digest {}",
        args.workload,
        args.seed,
        tally.attempted,
        tally.failed_frac(),
        tally.digest()
    );
    let stamp = Stamp {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.traced,
        ops: tally.attempted,
        threads,
        digest: tally.digest(),
    };
    println!("{}", stamp.to_json(&root));
    println!(
        "{}",
        report::result_line(correct, tally.attempted, tally.failed, &metrics_json)
    );
    Ok(correct)
}

/// `perf pool <campaign|sweep|serve>`: runs every entry of the seed pool
/// once, as a timed op of that workload would, and reports the entries
/// whose report fails its check.
fn check_pool(args: &[String]) -> Result<bool, String> {
    use pool::{Draw, SIZE};
    use workloads::{Campaign, Sweep, CAMPAIGN_MUST_FIND, SWEEP_MUST_FIND};
    let [name] = args else {
        return Err("usage: perf pool <campaign|sweep|serve>".to_owned());
    };
    let work = Scratch::new(&format!("pool-{name}"))?;
    let every = |w: &mut dyn closedloop::Workload, must_find| {
        let mut tally = Tally::new(must_find);
        for i in 0..SIZE as usize {
            w.op(i, &mut tally);
        }
        tally
    };
    let tally = match name.as_str() {
        "campaign" => every(&mut Campaign::new(Draw::in_order())?, CAMPAIGN_MUST_FIND),
        "sweep" => every(
            &mut Sweep::new(Draw::in_order(), false, work.0.clone()),
            SWEEP_MUST_FIND,
        ),
        "serve" => serve::check_pool(&work.0)?,
        _ => return Err(format!("unknown pool {name}")),
    };
    for reason in &tally.reasons {
        eprintln!("perf: pool {name}: {reason}");
    }
    println!(
        "pool {name}: {} entries, {} failed",
        tally.attempted, tally.failed
    );
    Ok(tally.failed == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("pool") => check_pool(&args[1..]),
        _ => parse_run(&args)
            .map_err(|e| format!("{e}\n{USAGE}"))
            .and_then(|a| run(&a)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}
