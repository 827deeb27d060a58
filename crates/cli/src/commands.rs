//! Subcommand implementations.

use crate::args::{self, ArgError, ParsedArgs};
use fase_core::{
    classify_by_pairs, estimate_all, CampaignConfig, CampaignSpectra, Fase, FaseError, FaseReport,
};
use fase_dsp::Hertz;
use fase_emsim::SimulatedSystem;
use fase_serve::protocol::{
    retries_from, sweep_seeds, SweepRequest, DEFAULT_ALTERNATIONS, DEFAULT_AVERAGES,
    DEFAULT_F_ALT1_HZ, DEFAULT_F_DELTA_HZ, DEFAULT_OVERLAP_RESOLUTIONS, DEFAULT_PAIR,
    DEFAULT_RESOLUTION_HZ, DEFAULT_RETRIES, DEFAULT_SEED, DEFAULT_SWEEP_BANDS,
};
use fase_specan::{probe_modulation, run_campaign_with_options, CampaignOptions, FaultPlan};
use fase_sysmodel::ActivityPair;
use std::fmt;
use std::fmt::Write as _;

/// Usage text printed on argument errors.
pub const USAGE: &str = "\
usage:
  fase-cli list-systems
  fase-cli scan     --system <name> --lo <freq> --hi <freq> [--res <freq>]
                    [--pair ldm-ldl1|ldl2-ldl1|ldl1-ldl1|ldm-ldm|stm-ldl1|ldm-add]
                    [--falt <freq>] [--fdelta <freq>] [--alts <n>] [--avg <n>]
                    [--seed <n>] [--csv <path>]
                    [--fault-rate <p>] [--fault-seed <n>] [--retries <n>] [--fail-alt <i>]
  fase-cli classify --system <name> --lo <freq> --hi <freq>
                     [scan options except --pair and --csv]
  fase-cli probe     --system <name> --carrier <freq> [--falt <freq>] [--span <freq>] [--seed <n>]
  fase-cli leakage   --system <name> --lo <freq> --hi <freq> [scan options except --csv]
  fase-cli attribute --system <name> --peak <freq> --lo <freq> --hi <freq>
                     [scan options except --csv]
  fase-cli report    --system <name> --lo <freq> --hi <freq> [scan options]
                     (scan with the stage-timing tree always appended)
  fase-cli sweep     --system <name> --lo <freq> --hi <freq> [--res <freq>]
                     [--bands <n>] [--overlap <freq>] [--shard <k/n>]
                     [--cache-dir <path>] [--threads <n>]
                     [scan options except --csv and --fail-alt]
  fase-cli serve     [--addr 127.0.0.1:0] [--port-file <path>] [--cache-dir <path>]
                     [--workers <n>] [--tenant-cap <n>] [--global-cap <n>]
                     [--quantum <n>] [--default-deadline-ms <n>]
                     [--drain-deadline-ms <n>] [--run-ms <n>]
  fase-cli load      --addr <host:port> [--tenants <n>] [--requests <n>]
                     [--concurrency <n>] [--seed <n>] [--fault-rate <p>]
                     [--deadline-ms <n>] [--max-captures <n>] [--max-p99-ms <x>]
                     [--json] [--drain] [--no-retry]
  fase-cli detect-bench [--channels <n>] [--cache-dir <path>] [--out <path>]
                     [--min-auc <x>] [--json]

systems: i7 | i3 | turion | p3m | i7-mitigated
frequencies accept k/M/G suffixes (e.g. 43.3k, 2M). A subcommand refuses
any option it does not list.

sweep: shards [lo, hi] into --bands overlapping bands, runs a campaign per
band, and merges the per-band reports (seam duplicates deduplicated,
harmonic sets regrouped across bands). It runs the sweep a POST /v1/sweep
body with the same fields runs, with the same defaults (2 bands), and
fails where that request fails.
With --cache-dir, each band's captures are cached content-addressed: a
re-run is served from disk and recomputes only the bands with no valid
entry, so re-running an interrupted sweep finishes it — bit-identical to
an uninterrupted run.
--shard k/n computes only bands with index % n == k, so several hosts
sharing a cache directory can split one span.

observability (scan/classify/leakage/attribute/report/sweep):
  --metrics-out <path>  write deterministic metrics JSON (stage spans,
                        counters, latency histograms; stable key order,
                        durations only, no timestamps)
  --timings             append the hierarchical stage-timing tree to the
                        report

fault injection (scan/classify/leakage/attribute/report/sweep):
  --fault-rate <p>   per-class capture impairment probability (default 0)
  --fault-seed <n>   impairment schedule seed (default derived from --seed)
  --retries <n>      retries per failed capture before giving up (default 2)
  --fail-alt <i>     force every capture of alternation index <i> to fail;
                     the campaign degrades to the surviving frequencies
                     (not sweep: no /v1/sweep request can ask for it)

serve: runs the multi-tenant sweep service (admission control, DRR
fairness, deadlines, graceful drain). --run-ms drains and exits after
that long; a POST /v1/drain drains it sooner. --port-file writes the
bound address (useful with --addr 127.0.0.1:0) for scripts.

load: drives a running server with a seeded multi-tenant request mix
and prints latency/outcome statistics (--json for machine-readable
output). --drain sends a drain once the load completes; --max-p99-ms
fails the run (exit 2) when the p99 latency exceeds the bound.

detect-bench: runs the labeled detection-quality population (leaky
machines vs interferer-only scenes) through multi-channel sweeps with
--channels receivers and reports ROC-AUC / average precision for the
fused statistic against the single-channel baseline. --out writes the deterministic
BENCH_detection JSON (no wall times — byte-identical across thread
counts and cache temperatures); --min-auc fails the run (exit 2) when
the fused AUC falls below the bound; --cache-dir reuses captures.

exit codes:
  0 success                 2 usage / invalid configuration
  3 capture cache           4 capture failed
  5 worker failed           6 invalid spectra / spectrum
  7 cancelled";

/// Errors surfaced to the user.
#[derive(Debug)]
pub enum CliError {
    /// Argument parsing/validation failed.
    Args(ArgError),
    /// The campaign or analysis failed.
    Fase(FaseError),
    /// A domain-specific validation failed.
    Invalid(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Fase(e) => write!(f, "{e}"),
            CliError::Invalid(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for CliError {}

impl CliError {
    /// The process exit code for this error — a stable contract scripts
    /// and CI branch on:
    ///
    /// | code | meaning                                             |
    /// |------|-----------------------------------------------------|
    /// | 0    | success                                             |
    /// | 2    | usage error or invalid configuration                |
    /// | 3    | capture cache I/O failure                           |
    /// | 4    | a capture exhausted its retry budget                |
    /// | 5    | a campaign worker failed (panic/abort)              |
    /// | 6    | invalid spectra or spectrum-level failure           |
    /// | 7    | cancelled (deadline, budget, or explicit)           |
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Args(_) | CliError::Invalid(_) => 2,
            CliError::Fase(e) => match e {
                FaseError::InvalidConfig(_) => 2,
                FaseError::Cache(_) => 3,
                FaseError::CaptureFailed { .. } => 4,
                FaseError::Worker(_) => 5,
                FaseError::InvalidSpectra(_) | FaseError::Spectrum(_) => 6,
                FaseError::Cancelled(_) => 7,
            },
        }
    }
}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> CliError {
        CliError::Args(e)
    }
}

impl From<FaseError> for CliError {
    fn from(e: FaseError) -> CliError {
        CliError::Fase(e)
    }
}

/// Options every campaign-running subcommand reads: the scene, the
/// campaign grid, and the fault and retry settings a sweep request
/// carries.
const CAMPAIGN: &str = "system lo hi res falt fdelta alts avg seed fault-rate fault-seed retries";

/// Options `sweep` reads besides [`CAMPAIGN`].
const SWEEP: &str = "pair bands overlap shard cache-dir threads metrics-out";

/// Options `serve` reads.
const SERVE: &str = "addr port-file cache-dir workers tenant-cap global-cap quantum \
                     default-deadline-ms drain-deadline-ms run-ms";

/// Options `load` reads.
const LOAD: &str =
    "addr tenants requests concurrency seed fault-rate deadline-ms max-captures max-p99-ms";

/// A subcommand body.
type Body = fn(&ParsedArgs) -> Result<String, CliError>;

/// Every subcommand: its names, the `--key value` options and the
/// `--flag`s it reads (space-separated), and its body. Any other option
/// is an [`ArgError::UnknownOption`].
#[rustfmt::skip]
const COMMANDS: &[(&str, &[&str], &str, Body)] = &[
    ("list-systems", &[], "", |_| Ok(list_systems())),
    ("scan report", &[CAMPAIGN, "fail-alt pair csv metrics-out"], "timings", scan),
    ("classify", &[CAMPAIGN, "fail-alt metrics-out"], "timings", classify),
    ("probe", &["system carrier falt span seed"], "", probe),
    ("leakage", &[CAMPAIGN, "fail-alt pair metrics-out"], "timings", leakage),
    ("attribute", &[CAMPAIGN, "fail-alt pair peak metrics-out"], "timings", attribute),
    ("sweep", &[CAMPAIGN, SWEEP], "timings", sweep),
    ("serve", &[SERVE], "", serve),
    ("load", &[LOAD], "json drain no-retry", load),
    ("detect-bench", &["channels cache-dir out min-auc"], "json", detect_bench),
    ("help -h", &[], "", |_| Ok(format!("{USAGE}\n"))),
];

/// Entry point: parses `args` and runs the subcommand, returning the text
/// to print. `report` is `scan` with the timing tree always appended.
///
/// # Errors
///
/// Returns a [`CliError`] describing what went wrong; the binary prints it
/// with the usage text.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let name = args::command(args)?;
    let (_, options, flags, body) = COMMANDS
        .iter()
        .find(|c| c.0.split_whitespace().any(|n| n == name))
        .ok_or_else(|| ArgError::UnknownCommand(name.to_owned()))?;
    let options: Vec<&str> = options.iter().flat_map(|g| g.split_whitespace()).collect();
    let flags: Vec<&str> = flags.split_whitespace().collect();
    let parsed = ParsedArgs::parse(args, &options, &flags)?;
    with_observability(&parsed, name == "report", *body)
}

/// Runs `body` under the process-wide metrics recorder when observability
/// was requested (`--metrics-out`, `--timings`, or the `report`
/// subcommand), then exports what was recorded: deterministic JSON to the
/// `--metrics-out` path and/or the human timing tree appended to the
/// report. Without either request this is a plain pass-through — the
/// recorder stays disabled and the campaign pays only a relaxed atomic
/// load per metric site.
fn with_observability(
    parsed: &ParsedArgs,
    always_timings: bool,
    body: Body,
) -> Result<String, CliError> {
    let metrics_out = parsed.get("metrics-out");
    let want_timings = always_timings || parsed.flag("timings");
    if metrics_out.is_none() && !want_timings {
        return body(parsed);
    }
    fase_obs::reset();
    fase_obs::enable();
    let result = body(parsed);
    fase_obs::disable();
    let snapshot = fase_obs::snapshot();
    let mut out = result?;
    if let Some(path) = metrics_out {
        std::fs::write(path, snapshot.to_json())
            .map_err(|e| CliError::Invalid(format!("cannot write {path}: {e}")))?;
    }
    if want_timings {
        out.push('\n');
        out.push_str(&snapshot.render_tree());
    }
    Ok(out)
}

fn list_systems() -> String {
    "available systems:\n\
     \x20 i7           Intel Core i7 desktop (paper §4, Figures 11-16)\n\
     \x20 i3           Intel Core i3 laptop, 2010 (§4.4)\n\
     \x20 turion       AMD Turion X2 laptop, 2007 (§4.4, Figure 17; has the FM regulator)\n\
     \x20 p3m          Intel Pentium 3M laptop, 2002 (§4.4)\n\
     \x20 i7-mitigated i7 with randomized refresh issue (the paper's proposed fix)\n"
        .to_owned()
}

/// Maps a system name to its zero-capture constructor, so sweep workers
/// can rebuild the scene without re-validating the name.
fn system_factory(name: &str) -> Result<fn(u64) -> SimulatedSystem, CliError> {
    fase_serve::protocol::system_factory(name).ok_or_else(|| {
        CliError::Invalid(format!(
            "unknown system '{name}' (try: fase-cli list-systems)"
        ))
    })
}

fn pair_by_name(name: &str) -> Result<ActivityPair, CliError> {
    fase_serve::protocol::pair_by_name(name).ok_or_else(|| {
        CliError::Invalid(format!(
            "unknown pair '{name}' (ldm-ldl1 | ldl2-ldl1 | ldl1-ldl1 | ldm-ldm | stm-ldl1 | ldm-add)"
        ))
    })
}

/// The sweep request a command line describes: the fields a `/v1/sweep`
/// body sets, with the same defaults. Every campaign-running subcommand
/// reads its scene, grid, retry and fault settings here.
fn request_from(parsed: &ParsedArgs) -> Result<SweepRequest, CliError> {
    let pair = parsed.get("pair").unwrap_or(DEFAULT_PAIR);
    pair_by_name(pair)?;
    let system = parsed.required("system")?;
    system_factory(system)?;
    let resolution = parsed.frequency_or("res", DEFAULT_RESOLUTION_HZ)?;
    let fault_rate = parsed.float_or("fault-rate", 0.0)?;
    if !(0.0..=1.0).contains(&fault_rate) {
        return Err(CliError::Invalid(format!(
            "--fault-rate {fault_rate} is not a probability in [0, 1]"
        )));
    }
    // Only a plan that injects faults reads its seed.
    let faulty = fault_rate > 0.0 || parsed.get("fail-alt").is_some();
    Ok(SweepRequest {
        tenant: String::new(),
        system: system.to_owned(),
        pair: pair.to_owned(),
        lo: parsed.frequency("lo")?,
        hi: parsed.frequency("hi")?,
        resolution,
        bands: parsed.integer_or("bands", DEFAULT_SWEEP_BANDS)? as usize,
        overlap: parsed.frequency_or("overlap", DEFAULT_OVERLAP_RESOLUTIONS * resolution)?,
        f_alt1: parsed.frequency_or("falt", DEFAULT_F_ALT1_HZ)?,
        f_delta: parsed.frequency_or("fdelta", DEFAULT_F_DELTA_HZ)?,
        alternations: parsed.integer_or("alts", DEFAULT_ALTERNATIONS)? as usize,
        averages: parsed.integer_or("avg", DEFAULT_AVERAGES)? as usize,
        seed: parsed.integer_or("seed", DEFAULT_SEED)?,
        fault_rate,
        fault_seed: if faulty {
            parsed.integer_opt("fault-seed")?
        } else {
            None
        },
        retries: retries_from(parsed.integer_or("retries", DEFAULT_RETRIES)?),
        max_fft: None,
        deadline_ms: None,
        max_captures: None,
    })
}

/// Runs one campaign over the requested band with `pair`, honoring the
/// request's retry and fault settings and `--fail-alt`. The scene seed
/// builds the system; the campaign itself runs under the seeds
/// [`sweep_seeds`] derives from it, as one band of a sweep does.
fn campaign_spectra(parsed: &ParsedArgs, pair: ActivityPair) -> Result<CampaignSpectra, CliError> {
    let request = request_from(parsed)?;
    let config = CampaignConfig::builder()
        .band(Hertz(request.lo), Hertz(request.hi))
        .resolution(Hertz(request.resolution))
        .alternation(
            Hertz(request.f_alt1),
            Hertz(request.f_delta),
            request.alternations,
        )
        .averages(request.averages)
        .build()?;
    let seeds = sweep_seeds(&request.system, request.seed);
    let mut fault_plan = request.fault_plan();
    if let Some(i) = parsed.integer_opt("fail-alt")? {
        let fault_seed = request.fault_seed.unwrap_or(seeds.fault_seed);
        let plan = fault_plan.unwrap_or_else(|| FaultPlan::new(fault_seed));
        fault_plan = Some(plan.always_fail(i as usize));
    }
    let make = system_factory(&request.system)?;
    let options = CampaignOptions {
        max_attempts: request.retries + 1,
        fault_plan,
        ..CampaignOptions::default()
    };
    let seed = request.seed;
    Ok(run_campaign_with_options(
        &config,
        pair,
        |_| make(seed),
        seeds.capture_seed,
        options,
    )?)
}

fn run_campaign(parsed: &ParsedArgs, pair: ActivityPair) -> Result<FaseReport, CliError> {
    let spectra = campaign_spectra(parsed, pair)?;
    Ok(Fase::default().analyze(&spectra)?)
}

fn scan(parsed: &ParsedArgs) -> Result<String, CliError> {
    let pair = pair_by_name(parsed.get("pair").unwrap_or(DEFAULT_PAIR))?;
    let report = run_campaign(parsed, pair)?;
    if let Some(path) = parsed.get("csv") {
        let mut text = String::from("carrier_hz,magnitude_dbm,sideband_dbm,evidence\n");
        for c in report.carriers() {
            let _ = writeln!(
                text,
                "{:.1},{:.2},{:.2},{:.2}",
                c.frequency().hz(),
                c.magnitude().dbm(),
                c.sideband_magnitude().dbm(),
                c.total_log_score()
            );
        }
        std::fs::write(path, text)
            .map_err(|e| CliError::Invalid(format!("cannot write {path}: {e}")))?;
    }
    let mut out = String::new();
    let _ = writeln!(out, "{report}");
    Ok(out)
}

fn classify(parsed: &ParsedArgs) -> Result<String, CliError> {
    let memory = run_campaign(parsed, ActivityPair::LdmLdl1)?;
    let onchip = run_campaign(parsed, ActivityPair::Ldl2Ldl1)?;
    let mut out = String::new();
    let _ = writeln!(out, "classification (LDM/LDL1 vs LDL2/LDL1):");
    for c in classify_by_pairs(&memory, &onchip, Hertz(2_000.0)) {
        let _ = writeln!(out, "  {} -> {}", c.carrier, c.class);
    }
    Ok(out)
}

fn probe(parsed: &ParsedArgs) -> Result<String, CliError> {
    let seed = parsed.integer_or("seed", DEFAULT_SEED)?;
    let mut system = system_factory(parsed.required("system")?)?(seed);
    let carrier = Hertz(parsed.frequency("carrier")?);
    let falt = Hertz(parsed.frequency_or("falt", 5_000.0)?);
    // Narrow enough to exclude neighbouring carriers, wide enough for
    // several harmonics of the default 5 kHz alternation.
    let span = parsed.frequency_or("span", 24_000.0)?;
    let (stats, kind) = probe_modulation(
        &mut system,
        ActivityPair::LdmLdl1,
        seed.wrapping_add(1),
        carrier,
        falt,
        span,
    );
    Ok(format!(
        "carrier {carrier}: {kind:?} (AM depth {:.3}, FM deviation {:.0} Hz)\n",
        stats.am_depth, stats.fm_deviation_hz
    ))
}

fn leakage(parsed: &ParsedArgs) -> Result<String, CliError> {
    let pair = pair_by_name(parsed.get("pair").unwrap_or(DEFAULT_PAIR))?;
    let spectra = campaign_spectra(parsed, pair)?;
    let report = Fase::default().analyze(&spectra)?;
    let mut out = String::from("per-carrier leakage upper bounds:\n");
    for e in estimate_all(&spectra, &report, Hertz(5_000.0)) {
        let _ = writeln!(out, "  {e}");
    }
    Ok(out)
}

fn attribute(parsed: &ParsedArgs) -> Result<String, CliError> {
    use fase_core::attribute_peak;
    let pair = pair_by_name(parsed.get("pair").unwrap_or(DEFAULT_PAIR))?;
    let peak = Hertz(parsed.frequency("peak")?);
    let spectra = campaign_spectra(parsed, pair)?;
    let ranked = attribute_peak(&spectra, peak);
    let mut out = format!(
        "attributions of the peak at {peak}:
"
    );
    for a in ranked.iter().take(5) {
        let _ = writeln!(out, "  {a}");
    }
    if ranked.is_empty() {
        out.push_str(
            "  (no in-band interpretation)
",
        );
    }
    Ok(out)
}

/// The `--shard k/n` assignment, if any.
fn shard_from(parsed: &ParsedArgs) -> Result<Option<fase_specan::Shard>, CliError> {
    let Some(text) = parsed.get("shard") else {
        return Ok(None);
    };
    let parse = || {
        let (index, count) = text.split_once('/')?;
        Some(fase_specan::Shard {
            index: index.trim().parse().ok()?,
            count: count.trim().parse().ok()?,
        })
    };
    match parse() {
        Some(shard) => Ok(Some(shard)),
        None => Err(ArgError::BadValue {
            option: "shard".to_owned(),
            value: text.to_owned(),
            expected: "shard assignment k/n (e.g. 0/4)",
        }
        .into()),
    }
}

fn sweep(parsed: &ParsedArgs) -> Result<String, CliError> {
    let request = request_from(parsed)?;
    let mut options = fase_specan::SweepOptions::default();
    options.campaign.threads = parsed.integer_opt("threads")?.map(|n| n as usize);
    options.cache_dir = parsed.get("cache-dir").map(std::path::PathBuf::from);
    options.shard = shard_from(parsed)?;
    let outcome = request.run(options)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "sweep {} .. {} in {} band(s):",
        Hertz(request.lo),
        Hertz(request.hi),
        outcome.bands.len()
    );
    for b in &outcome.bands {
        let status = if b.skipped {
            "skipped (other shard)"
        } else if b.from_cache {
            "cached  "
        } else {
            "computed"
        };
        let _ = writeln!(
            out,
            "  band {}  {} .. {}  {status}  {} carrier(s)",
            b.band.index, b.band.lo, b.band.hi, b.carriers
        );
    }
    let _ = writeln!(
        out,
        "cache: {} hit(s), {} miss(es)",
        outcome.cache_hits, outcome.cache_misses
    );
    if !outcome.complete {
        let _ = writeln!(
            out,
            "note: partial sweep — unassigned bands were skipped; the merged\n\
             report covers only the computed bands"
        );
    }
    let _ = writeln!(out, "\n{}", outcome.report);
    Ok(out)
}

/// Starts the multi-tenant sweep service and blocks until it drains
/// (via `--run-ms` or an HTTP `POST /v1/drain`).
fn serve(parsed: &ParsedArgs) -> Result<String, CliError> {
    use fase_serve::{ServeConfig, Server};
    let mut config = ServeConfig {
        addr: parsed.get("addr").unwrap_or("127.0.0.1:0").to_owned(),
        workers: parsed.integer_or("workers", 2)?.max(1) as usize,
        cache_dir: parsed.get("cache-dir").map(std::path::PathBuf::from),
        default_deadline_ms: parsed.integer_or("default-deadline-ms", 60_000)?,
        drain_deadline_ms: parsed.integer_or("drain-deadline-ms", 10_000)?,
        ..ServeConfig::default()
    };
    config.caps.per_tenant = parsed.integer_or("tenant-cap", 8)?.max(1) as usize;
    config.caps.global = parsed.integer_or("global-cap", 32)?.max(1) as usize;
    config.caps.quantum = parsed.integer_or("quantum", 2)?;
    let run_ms = parsed.integer_opt("run-ms")?;

    let server = Server::start(config)?;
    let addr = server.addr();
    if let Some(path) = parsed.get("port-file") {
        std::fs::write(path, format!("{addr}\n"))
            .map_err(|e| CliError::Invalid(format!("cannot write {path}: {e}")))?;
    }
    println!("fase-serve listening on {addr}");
    // An HTTP drain ends the wait; --run-ms expiring triggers one here.
    if !server.wait_for_drain(run_ms.map(std::time::Duration::from_millis)) {
        server.drain();
    }
    server.join();
    Ok(format!("fase-serve on {addr}: drained cleanly\n"))
}

/// Drives a running server with a seeded multi-tenant load and reports
/// outcome counts and latency percentiles.
fn load(parsed: &ParsedArgs) -> Result<String, CliError> {
    let fault_rate = parsed.float_or("fault-rate", 0.0)?;
    if !(0.0..=1.0).contains(&fault_rate) {
        return Err(CliError::Invalid(format!(
            "--fault-rate {fault_rate} is not a probability in [0, 1]"
        )));
    }
    let spec = fase_serve::LoadSpec {
        addr: parsed.required("addr")?.to_owned(),
        tenants: parsed.integer_or("tenants", 4)?.max(1) as usize,
        requests: parsed.integer_or("requests", 4)?.max(1) as usize,
        concurrency: parsed.integer_or("concurrency", 8)?.max(1) as usize,
        seed: parsed.integer_or("seed", 42)?,
        fault_rate,
        deadline_ms: Some(parsed.integer_or("deadline-ms", 30_000)?),
        max_captures: parsed.integer_opt("max-captures")?,
        retry_rejected: !parsed.flag("no-retry"),
    };
    let report = fase_serve::run_load(&spec)?;
    if parsed.flag("drain") {
        let _ = fase_serve::http::client_request(&spec.addr, "POST", "/v1/drain", "");
    }
    let max_p99 = parsed.float_or("max-p99-ms", 0.0)?;
    if max_p99 > 0.0 && report.p99_ms > max_p99 {
        return Err(CliError::Invalid(format!(
            "p99 latency {:.1} ms exceeds the --max-p99-ms bound of {max_p99} ms",
            report.p99_ms
        )));
    }
    if parsed.flag("json") {
        return Ok(format!("{}\n", report.to_json()));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "load against {}: {} request(s) from {} tenant(s) over {} lane(s)",
        spec.addr, report.sent, spec.tenants, spec.concurrency
    );
    let _ = writeln!(
        out,
        "  outcomes: {} ok, {} degraded, {} rejected, {} error(s) \
         ({} rejection(s) seen including retries)",
        report.ok, report.degraded, report.rejected, report.errors, report.rejections_seen
    );
    let _ = writeln!(
        out,
        "  latency: p50 {:.1} ms, p99 {:.1} ms, max {:.1} ms; {:.1} req/s over {:.0} ms",
        report.p50_ms, report.p99_ms, report.max_ms, report.throughput_rps, report.wall_ms
    );
    Ok(out)
}

/// Runs the labeled detection-quality benchmark and reports fused vs.
/// single-channel ROC/PR quality.
fn detect_bench(parsed: &ParsedArgs) -> Result<String, CliError> {
    use fase_bench::detection::{run_detection_benchmark, standard_scenarios};
    let channels = parsed.integer_or("channels", 3)?.max(1) as usize;
    let cache_dir = parsed.get("cache-dir").map(std::path::PathBuf::from);
    let min_auc = parsed.float_or("min-auc", 0.0)?;
    let report = run_detection_benchmark(&standard_scenarios(), channels, cache_dir.as_deref());

    if let Some(path) = parsed.get("out") {
        std::fs::write(path, report.to_json())
            .map_err(|e| CliError::Invalid(format!("cannot write {path}: {e}")))?;
    }
    if min_auc > 0.0 && report.fused_auc < min_auc {
        return Err(CliError::Invalid(format!(
            "fused ROC-AUC {:.4} is below the --min-auc bound of {min_auc}",
            report.fused_auc
        )));
    }
    if parsed.flag("json") {
        return Ok(report.to_json());
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "detection quality over {} scenario(s), {channels} channel(s):",
        report.outcomes.len()
    );
    for o in &report.outcomes {
        let _ = writeln!(
            out,
            "  {:<20} {:<8} fused {:>7.2}  single {:>7.2}  best-single {:>7.2}",
            o.name,
            if o.positive { "leak" } else { "clutter" },
            o.fused,
            o.single,
            o.best_single
        );
    }
    let _ = writeln!(
        out,
        "ROC-AUC: fused {:.4} vs single-channel {:.4}",
        report.fused_auc, report.single_auc
    );
    let _ = writeln!(
        out,
        "average precision: fused {:.4} vs single-channel {:.4}",
        report.fused_ap, report.single_ap
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    /// Held exclusively by the tests that turn the process-wide recorder
    /// on and read it back, and shared by every test whose campaign
    /// records into it: a capture of another test that lands in, or is
    /// still open at the end of, an enabled window would corrupt its
    /// snapshot (a `capture/synth` span without its `capture` parent).
    static OBS_LOCK: std::sync::RwLock<()> = std::sync::RwLock::new(());

    /// Runs `cmd`, whose campaign records into the process-wide recorder,
    /// while no test has that recorder on.
    fn run_recorded(cmd: &str) -> Result<String, CliError> {
        let _shared = OBS_LOCK
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        run(&argv(cmd))
    }

    #[test]
    fn list_systems_names_all_presets() {
        let out = run(&argv("list-systems")).unwrap();
        for name in ["i7", "i3", "turion", "p3m", "i7-mitigated"] {
            assert!(out.contains(name), "missing {name} in {out}");
        }
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&argv("help")).unwrap();
        assert!(out.contains("fase-cli scan"));
        assert!(out.contains("detect-bench"));
    }

    #[test]
    fn detect_bench_rejects_bad_bounds_before_running() {
        let e = run(&argv("detect-bench --min-auc nope")).unwrap_err();
        assert!(
            matches!(e, CliError::Args(ArgError::BadValue { .. })),
            "{e}"
        );
        let e = run(&argv("detect-bench --channels x")).unwrap_err();
        assert!(
            matches!(e, CliError::Args(ArgError::BadValue { .. })),
            "{e}"
        );
    }

    #[test]
    fn unknown_command_and_system() {
        assert!(matches!(run(&argv("frobnicate")), Err(CliError::Args(_))));
        let e = run(&argv("scan --system vax --lo 60k --hi 2M")).unwrap_err();
        assert!(matches!(e, CliError::Invalid(_)));
    }

    #[test]
    fn scan_finds_the_dram_regulator() {
        let out = run_recorded(
            "scan --system i7 --lo 250k --hi 400k --res 200 --falt 30k --fdelta 2k --alts 5 --avg 3",
        )
        .unwrap();
        assert!(out.contains("carrier 315"), "{out}");
    }

    #[test]
    fn probe_identifies_fm_regulator() {
        let out =
            run_recorded("probe --system turion --carrier 280.87k --span 120k --seed 7").unwrap();
        assert!(out.contains("Fm"), "{out}");
    }

    #[test]
    fn attribute_explains_a_sideband() {
        // The DRAM regulator's upper side-band at ~315.66 kHz + 30 kHz.
        let out = run_recorded(
            "attribute --system i7 --peak 345.66k --lo 250k --hi 400k --res 200 --falt 30k --fdelta 2k --alts 5 --avg 3",
        )
        .unwrap();
        assert!(out.contains("h = +1"), "{out}");
        assert!(out.contains("315"), "{out}");
    }

    #[test]
    fn scan_writes_csv() {
        let path = std::env::temp_dir().join("fase_cli_scan_test.csv");
        let cmd = format!(
            "scan --system i7 --lo 300k --hi 330k --res 500 --falt 30k --fdelta 2k --alts 3 --avg 1 --csv {}",
            path.display()
        );
        let _ = run_recorded(&cmd).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("carrier_hz,"), "{text}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn metrics_out_exports_schema_valid_json() {
        let _guard = OBS_LOCK
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let path = std::env::temp_dir().join("fase_cli_metrics_test.json");
        let cmd = format!(
            "scan --system i7 --lo 300k --hi 330k --res 500 --falt 30k --fdelta 2k --alts 3 --avg 1 --metrics-out {}",
            path.display()
        );
        let _ = run(&argv(&cmd)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let schema = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../scripts/metrics.schema.json"
        ))
        .unwrap();
        fase_obs::validate::validate_metrics(&text, &schema).unwrap();
        assert!(text.contains("\"campaign\""), "{text}");
        assert!(text.contains("\"specan.captures\""), "{text}");
        assert!(text.contains("\"dsp.fft\""), "{text}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn report_appends_timing_tree() {
        let _guard = OBS_LOCK
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let out = run(&argv(
            "report --system i7 --lo 300k --hi 330k --res 500 --falt 30k --fdelta 2k --alts 3 --avg 1",
        ))
        .unwrap();
        assert!(
            out.contains("timings (calls, total wall time per span)"),
            "{out}"
        );
        assert!(out.contains("campaign"), "{out}");
        assert!(out.contains("counters"), "{out}");
        assert!(out.contains("specan.captures"), "{out}");
    }

    #[test]
    fn bad_campaign_parameters_are_reported() {
        let e = run(&argv("scan --system i7 --lo 2M --hi 60k")).unwrap_err();
        assert!(matches!(e, CliError::Fase(_)), "{e}");
    }

    #[test]
    fn scan_with_failed_alternation_reports_degraded_health() {
        let out = run_recorded(
            "scan --system i7 --lo 250k --hi 400k --res 200 --falt 30k --fdelta 2k --alts 5 --avg 3 --fail-alt 2",
        )
        .unwrap();
        assert!(out.contains("carrier 315"), "{out}");
        assert!(out.contains("DEGRADED"), "{out}");
        assert!(out.contains("4/5"), "{out}");
    }

    #[test]
    fn scan_with_fault_rate_reports_impairments() {
        let out = run_recorded(
            "scan --system i7 --lo 250k --hi 400k --res 200 --falt 30k --fdelta 2k --alts 5 --avg 3 \
             --fault-rate 0.05 --fault-seed 9 --retries 4",
        )
        .unwrap();
        assert!(out.contains("carrier 315"), "{out}");
        assert!(out.contains("capture health"), "{out}");
    }

    #[test]
    fn sweep_merges_bands_and_warm_run_hits_the_cache() {
        let dir = std::env::temp_dir().join(format!("fase_cli_sweep_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cmd = format!(
            "sweep --system i7 --lo 250k --hi 400k --res 200 --bands 2 --overlap 2k \
             --falt 30k --fdelta 2k --alts 5 --avg 3 --seed 11 --cache-dir {}",
            dir.display()
        );
        let cold = run_recorded(&cmd).unwrap();
        assert!(cold.contains("band 0"), "{cold}");
        assert!(cold.contains("band 1"), "{cold}");
        assert!(cold.contains("cache: 0 hit(s), 2 miss(es)"), "{cold}");
        assert!(cold.contains("carrier 315"), "{cold}");
        let warm = run_recorded(&cmd).unwrap();
        assert!(warm.contains("cache: 2 hit(s), 0 miss(es)"), "{warm}");
        // Same carriers, same evidence: only the provenance column moved.
        let tail = |s: &str| s.split("cache:").nth(1).map(str::to_owned);
        assert_eq!(
            tail(&cold).map(|t| t.replace("0 hit(s), 2 miss(es)", "")),
            tail(&warm).map(|t| t.replace("2 hit(s), 0 miss(es)", "")),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Serves `body` on a fresh server over an empty cache directory,
    /// then runs `fase-cli sweep <cli>` over the same directory: every
    /// one of the `bands` bands the server cached must be a CLI hit.
    fn assert_cli_sweep_reuses_served_bands(tag: &str, body: &str, cli: &str, bands: u64) {
        use fase_serve::http::client_request;
        use fase_serve::{ServeConfig, Server};
        let dir = std::env::temp_dir().join(format!("fase_cli_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::start(ServeConfig {
            workers: 1,
            cache_dir: Some(dir.clone()),
            ..ServeConfig::default()
        })
        .unwrap();
        let served = client_request(&server.addr().to_string(), "POST", "/v1/sweep", body).unwrap();
        server.join();
        assert_eq!(served.status, 200, "{}", served.body);
        let misses = format!("\"cache_hits\":0,\"cache_misses\":{bands}");
        assert!(served.body.contains(&misses), "{}", served.body);
        let out = run_recorded(&format!("sweep {cli} --cache-dir {}", dir.display())).unwrap();
        let hits = format!("cache: {bands} hit(s), 0 miss(es)");
        assert!(out.contains(&hits), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_reuses_every_band_a_server_request_cached() {
        // A fault rate without a fault seed: the default fault seed and
        // the capture seed both enter each band's cache key.
        assert_cli_sweep_reuses_served_bands(
            "shared_cache",
            r#"{"tenant":"t","system":"i7","lo":250000,"hi":400000,"res":200,"bands":2,
                "overlap":2000,"falt":30000,"fdelta":2000,"alts":5,"avg":3,"seed":11,
                "fault_rate":0.05,"deadline_ms":120000}"#,
            "--system i7 --lo 250k --hi 400k --res 200 --bands 2 --overlap 2k \
             --falt 30k --fdelta 2k --alts 5 --avg 3 --seed 11 --fault-rate 0.05",
            2,
        );
    }

    #[test]
    fn sweep_default_bands_reuse_every_band_a_server_request_cached() {
        // Neither side names `bands`: both must shard into the same
        // default number of bands.
        assert_cli_sweep_reuses_served_bands(
            "default_bands",
            r#"{"tenant":"t","system":"i7","lo":250000,"hi":400000,"res":200,
                "overlap":2000,"falt":30000,"fdelta":2000,"alts":5,"avg":3,"seed":11,
                "deadline_ms":120000}"#,
            "--system i7 --lo 250k --hi 400k --res 200 --overlap 2k \
             --falt 30k --fdelta 2k --alts 5 --avg 3 --seed 11",
            DEFAULT_SWEEP_BANDS,
        );
    }

    #[test]
    fn a_failing_sweep_fails_alike_on_the_server_and_the_cli() {
        // With no retries, seed 17's own fault schedule fails a capture of
        // one of the two alternations, so the sweep cannot finish. A
        // re-run under a perturbed fault seed would finish it, and cache
        // it under that other schedule's key: neither side may do that.
        use fase_serve::http::client_request;
        use fase_serve::{ServeConfig, Server};
        let dir = std::env::temp_dir().join(format!("fase_cli_no_rerun_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::start(ServeConfig {
            workers: 1,
            cache_dir: Some(dir.clone()),
            ..ServeConfig::default()
        })
        .unwrap();
        let served = client_request(
            &server.addr().to_string(),
            "POST",
            "/v1/sweep",
            r#"{"tenant":"t","system":"i7","lo":300000,"hi":330000,"res":500,"bands":1,
                "falt":30000,"fdelta":2000,"alts":2,"avg":1,"seed":17,
                "fault_rate":0.2,"retries":0,"deadline_ms":120000}"#,
        )
        .unwrap();
        server.join();
        assert_eq!(served.status, 500, "{}", served.body);
        assert!(
            served.body.contains("\"error\":\"capture-failed\""),
            "{}",
            served.body
        );
        let e = run_recorded(&format!(
            "sweep --system i7 --lo 300k --hi 330k --res 500 --bands 1 --falt 30k --fdelta 2k \
             --alts 2 --avg 1 --seed 17 --fault-rate 0.2 --retries 0 --cache-dir {}",
            dir.display()
        ))
        .unwrap_err();
        assert_eq!(e.exit_code(), 4, "{e}");
        // The request's one band failed, so no key of its own holds an
        // entry; any entry would belong to some other fault schedule.
        let entries: Vec<_> = std::fs::read_dir(&dir)
            .into_iter()
            .flatten()
            .flatten()
            .map(|entry| entry.file_name())
            .filter(|name| name.to_string_lossy().ends_with(".entry"))
            .collect();
        assert!(entries.is_empty(), "{entries:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_rejects_bad_shard_and_unknown_options() {
        let e = run(&argv(
            "sweep --system i7 --lo 250k --hi 400k --bands 2 --shard 5",
        ))
        .unwrap_err();
        assert!(matches!(e, CliError::Args(_)), "{e}");
        // Options sweep does not read, a misspelt one or --resume, fail
        // before anything runs instead of being ignored.
        for (cmd, message) in [
            (
                "sweep --system i7 --lo 250k --hi 400k --bandz 2",
                "unknown option --bandz",
            ),
            (
                "sweep --system i7 --lo 250k --hi 400k --bands 2 --resume",
                "unknown option --resume",
            ),
            // No request body can force an alternation to fail, so the
            // sweep a request also runs does not read --fail-alt.
            (
                "sweep --system i7 --lo 250k --hi 400k --bands 2 --fail-alt 2",
                "unknown option --fail-alt",
            ),
        ] {
            let e = run(&argv(cmd)).unwrap_err();
            assert!(
                matches!(e, CliError::Args(ArgError::UnknownOption(_))),
                "{cmd}: {e}"
            );
            assert_eq!(e.to_string(), message);
            assert_eq!(e.exit_code(), 2);
        }
        // Options are per subcommand: probe does not read --pair.
        let e = run(&argv("probe --system i7 --carrier 315k --pair ldm-ldl1")).unwrap_err();
        assert!(
            matches!(e, CliError::Args(ArgError::UnknownOption(_))),
            "{e}"
        );
    }

    #[test]
    fn every_usage_option_is_accepted_somewhere() {
        let accepted: Vec<&str> = COMMANDS
            .iter()
            .flat_map(|(_, options, flags, _)| options.iter().chain([flags]))
            .flat_map(|names| names.split_whitespace())
            .collect();
        for token in USAGE.split(|c: char| c.is_whitespace() || "[]|".contains(c)) {
            if let Some(name) = token.strip_prefix("--") {
                let name = name.trim_end_matches([',', ')', ';', '.']);
                assert!(accepted.contains(&name), "USAGE lists unaccepted --{name}");
            }
        }
    }

    #[test]
    fn serve_and_load_roundtrip_with_port_file() {
        let port_file =
            std::env::temp_dir().join(format!("fase_cli_serve_test_{}.port", std::process::id()));
        let _ = std::fs::remove_file(&port_file);
        // Run the server from a thread (as a separate process would);
        // it exits on its own after --run-ms.
        let serve_cmd = format!(
            "serve --addr 127.0.0.1:0 --workers 2 --run-ms 30000 --port-file {}",
            port_file.display()
        );
        let server = std::thread::spawn(move || run(&argv(&serve_cmd)));
        // Wait for the port file to appear.
        let mut addr = String::new();
        for _ in 0..200 {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                addr = text.trim().to_owned();
                if !addr.is_empty() {
                    break;
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        assert!(!addr.is_empty(), "server never wrote its port file");

        let load_cmd = format!(
            "load --addr {addr} --tenants 2 --requests 1 --concurrency 2 --seed 5 --json --drain"
        );
        let out = run(&argv(&load_cmd)).unwrap();
        assert!(out.contains("\"sent\":2"), "{out}");
        assert!(out.contains("\"errors\":0"), "{out}");
        // --drain shut the server down; the serve thread returns.
        let served = server.join().unwrap().unwrap();
        assert!(served.contains("drained cleanly"), "{served}");
        let _ = std::fs::remove_file(&port_file);
    }

    #[test]
    fn load_requires_an_address_and_valid_fault_rate() {
        let e = run(&argv("load --tenants 2")).unwrap_err();
        assert!(matches!(e, CliError::Args(_)), "{e}");
        let e = run(&argv("load --addr 127.0.0.1:1 --fault-rate 2.0")).unwrap_err();
        assert!(matches!(e, CliError::Invalid(_)), "{e}");
    }

    #[test]
    fn exit_codes_are_a_stable_contract() {
        use crate::args::ArgError;
        let cases: [(CliError, i32); 8] = [
            (CliError::Args(ArgError::MissingCommand), 2),
            (CliError::Invalid("x".into()), 2),
            (CliError::Fase(FaseError::invalid_config("x")), 2),
            (CliError::Fase(FaseError::cache("x")), 3),
            (
                CliError::Fase(FaseError::capture_failed(fase_dsp::Hertz(1.0), 0, 3, "x")),
                4,
            ),
            (CliError::Fase(FaseError::worker("x")), 5),
            (CliError::Fase(FaseError::invalid_spectra("x")), 6),
            (CliError::Fase(FaseError::cancelled("x")), 7),
        ];
        for (err, code) in cases {
            assert_eq!(err.exit_code(), code, "{err}");
        }
    }

    #[test]
    fn bad_fault_rate_is_rejected() {
        let e = run(&argv(
            "scan --system i7 --lo 250k --hi 400k --fault-rate 1.5",
        ))
        .unwrap_err();
        assert!(matches!(e, CliError::Invalid(_)), "{e}");
    }
}
