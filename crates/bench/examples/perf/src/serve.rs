//! `serve`: an in-process sweep server driven open-loop over HTTP.
//!
//! The request family is `LoadSpec::request_for` across four tenants,
//! widened to a two-band sweep of 250-400 kHz around the 315 kHz DRAM
//! regulator. Half of the requests carry a fresh seed, drawn from the
//! seed pool, and miss the capture cache; the other half repeat one of
//! the last sixteen fresh bodies and hit it. The run seed decides the
//! draws and the mix.

use crate::check::{MustFind, Tally};
use crate::openloop::{self, Sample};
use crate::pool::{self, Draw};
use crate::report::Metrics;
use crate::{closedloop, ledger, stats};
use fase_dsp::rng::mix_seed;
use fase_obs::json::{self, Value};
use fase_obs::Recorder;
use fase_serve::http::client_request;
use fase_serve::{LoadSpec, ServeConfig, Server};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Carrier every served report must contain: the DRAM regulator (315 kHz
/// nominal, 315.66 kHz in the simulated i7). Each request's seed builds
/// its own scene; over 3,600 scenes the reports placed it between 314.9
/// and 316.3 kHz.
const SERVE_MUST_FIND: MustFind = MustFind {
    hz: &[315_660.0],
    tolerance_hz: 1_000.0,
};

/// Server worker threads; each sweep campaign uses one capture thread.
const WORKERS: usize = 2;
pub const CAMPAIGN_THREADS: usize = 1;
/// Generator threads, hence connections in flight at most.
const LANES: usize = 2;
const TENANTS: usize = 4;
/// Repeated requests pick one of this many most recent fresh bodies; the
/// set-up sends the first this many fresh bodies to fill the cache.
const RECENT: usize = 16;
/// Keeps the fresh/repeat draws apart from the pool draws, which also
/// derive from the run seed.
const MIX_STREAM: u64 = 0x4D49_5845;
/// Rate of the end-to-end step, requests per second.
const RATE: f64 = 20.0;
/// Latency limit on p90 for `serve.slo_rps`, ms.
const SLO_P90_MS: f64 = 150.0;
/// Lateness growth (ms) above which a step counts as falling behind.
const LAG_SLACK_MS: f64 = 10.0;

/// The seeded request mix: an endless sequence of sweep bodies.
#[derive(Debug)]
struct Mix {
    spec: LoadSpec,
    draw: Draw,
    seed: u64,
    drawn: u64,
    fresh: usize,
    recent: VecDeque<String>,
}

impl Mix {
    /// The mix of run `seed` drawing request seeds by `draw`, and the
    /// first [`RECENT`] fresh bodies, which the set-up sends so that
    /// repeats can hit from the first request.
    fn new(draw: Draw, seed: u64) -> (Mix, Vec<String>) {
        let mut mix = Mix {
            spec: LoadSpec {
                tenants: TENANTS,
                ..LoadSpec::default()
            },
            draw,
            seed,
            drawn: 0,
            fresh: 0,
            recent: VecDeque::with_capacity(RECENT),
        };
        let priming = (0..RECENT).map(|_| mix.fresh()).collect();
        (mix, priming)
    }

    fn fresh(&mut self) -> String {
        let mut request = self
            .spec
            .request_for(self.fresh % TENANTS, self.fresh / TENANTS);
        // `request_for` sweeps 300-330 kHz with 30 kHz alternation: the
        // side-bands fall outside the band and its reports are empty.
        // Over 250-400 kHz the lower band ends at 327 kHz, so alternation
        // frequencies of 8-10 kHz keep the regulator's first side-bands
        // inside its band (at 30 kHz, one in a thousand scenes lost it).
        request.lo = 250_000.0;
        request.hi = 400_000.0;
        request.resolution = 200.0;
        request.f_alt1 = 8_000.0;
        request.f_delta = 500.0;
        request.alternations = 5;
        request.averages = 3;
        request.seed = self.draw.seed(self.fresh);
        let body = request.to_json();
        self.fresh += 1;
        if self.recent.len() == RECENT {
            self.recent.pop_front();
        }
        self.recent.push_back(body.clone());
        body
    }

    /// The next `count` bodies, in pairs of one fresh body and one
    /// repeat, so exactly half miss the cache; the seed picks the order
    /// within each pair and which recent body repeats.
    fn take(&mut self, count: usize) -> Vec<String> {
        (0..count)
            .map(|_| {
                let pair = mix_seed(self.seed ^ MIX_STREAM, self.drawn / 2);
                let fresh = self.drawn % 2 == pair % 2;
                let pick = mix_seed(pair, self.drawn) as usize % self.recent.len();
                self.drawn += 1;
                if fresh {
                    self.fresh()
                } else {
                    self.recent[pick].clone()
                }
            })
            .collect()
    }
}

/// What one response showed, beyond pass/fail.
#[derive(Debug, Default)]
struct Counts {
    rejected: AtomicUsize,
    all_cached: AtomicUsize,
}

/// Checks one `/v1/sweep` response; `Err` says why it fails.
fn check_response(status: u16, body: &str) -> Result<(String, Vec<f64>), String> {
    if status != 200 {
        return Err(format!("HTTP {status}: {body}"));
    }
    let doc = json::parse(body).map_err(|e| format!("response: {e}"))?;
    if doc.get("degraded") != Some(&Value::Bool(false)) {
        return Err("degraded response".to_owned());
    }
    let report = body
        .split_once("\"report\":")
        .and_then(|(_, rest)| rest.strip_suffix('}'))
        .ok_or("response has no report")?;
    let carriers = doc
        .get("report")
        .and_then(|r| r.get("carriers"))
        .and_then(Value::as_array)
        .ok_or("report has no carriers")?
        .iter()
        .filter_map(|c| c.get("frequency_hz").and_then(Value::as_number))
        .collect();
    Ok((report.to_owned(), carriers))
}

fn start(dir: &Path, recorder: Recorder) -> Result<Server, String> {
    Server::start(ServeConfig {
        workers: WORKERS,
        campaign_threads: CAMPAIGN_THREADS,
        cache_dir: Some(dir.to_path_buf()),
        recorder,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))
}

/// Sends `bodies` as ops `first..` at `rate` (open loop) and checks every
/// response.
fn step(
    addr: &str,
    bodies: &[String],
    first: usize,
    rate: f64,
    tally: &Mutex<Tally>,
    counts: &Counts,
) -> Vec<Sample> {
    openloop::run(rate, bodies.len(), LANES, |i| {
        let op = first + i;
        let reply = client_request(addr, "POST", "/v1/sweep", &bodies[i]);
        let mut tally = tally.lock().expect("tally lock");
        let reply = match reply {
            Ok(reply) => reply,
            Err(e) => {
                tally.error(op, e);
                return false;
            }
        };
        if reply.status == 429 {
            counts.rejected.fetch_add(1, Ordering::Relaxed);
        }
        if reply.body.contains("\"cache_misses\":0,") {
            counts.all_cached.fetch_add(1, Ordering::Relaxed);
        }
        match check_response(reply.status, &reply.body) {
            Ok((report, carriers)) => tally.report(op, &report, &carriers),
            Err(e) => {
                tally.error(op, e);
                false
            }
        }
    })
}

/// Sends every entry of the seed pool once, as a fresh request, and
/// tallies the responses (`perf pool serve`).
pub fn check_pool(work: &Path) -> Result<Tally, String> {
    let (mut mix, mut bodies) = Mix::new(Draw::in_order(), 0);
    bodies.extend((RECENT as u64..pool::SIZE).map(|_| mix.fresh()));
    let server = start(work, Recorder::noop())?;
    let tally = Mutex::new(Tally::new(SERVE_MUST_FIND));
    let addr = server.addr().to_string();
    step(&addr, &bodies, 0, f64::INFINITY, &tally, &Counts::default());
    server.join();
    Ok(tally.into_inner().expect("tally lock"))
}

fn latencies(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.latency_ms).collect()
}

/// Runs the `serve` workload and records its metrics; returns the tally
/// of the timed requests.
pub fn run(
    seed: u64,
    seconds: f64,
    traced: bool,
    work: &Path,
    metrics: &mut Metrics,
) -> Result<Tally, String> {
    // Set-up rounds: start a server on an empty cache directory and send
    // the priming bodies; all but the last server are shut down again.
    let recorder = if traced {
        Recorder::global()
    } else {
        Recorder::noop()
    };
    let (mut mix, priming) = Mix::new(Draw::new(seed), seed);
    let tally = Mutex::new(Tally::new(SERVE_MUST_FIND));
    let counts = Counts::default();
    let mut rounds = Vec::new();
    let mut server: Option<Server> = None;
    for round in 0..closedloop::SETUP_ROUNDS {
        if let Some(old) = server.take() {
            old.join();
        }
        let t0 = Instant::now();
        let fresh = start(&work.join(format!("serve-{round}")), recorder.clone())?;
        let addr = fresh.addr().to_string();
        // An infinite rate makes every request due at once: the lanes
        // send the priming bodies back to back.
        let primed = openloop::run(f64::INFINITY, priming.len(), LANES, |i| {
            client_request(&addr, "POST", "/v1/sweep", &priming[i])
                .map_err(|e| e.to_string())
                .and_then(|r| check_response(r.status, &r.body))
                .is_ok()
        });
        rounds.push(t0.elapsed().as_secs_f64());
        if let Some(bad) = primed.iter().find(|s| !s.ok) {
            return Err(format!(
                "serve set-up: priming request {} failed",
                bad.index
            ));
        }
        server = Some(fresh);
    }
    let server = server.ok_or("no set-up rounds")?;
    let addr = server.addr().to_string();

    let result = if !traced {
        let bodies = mix.take((seconds * RATE).round() as usize);
        let cpu0 = crate::host::cpu_ms()?;
        let samples = step(&addr, &bodies, 0, RATE, &tally, &counts);
        let cpu_ms = crate::host::cpu_ms()? - cpu0;
        metrics.set("setup_s", fase_dsp::stats::median(&rounds));
        metrics.set("p50_ms", stats::percentile(&latencies(&samples), 50.0)?);
        metrics.set("cpu_ms_per_op", cpu_ms / samples.len() as f64);
        Ok(())
    } else {
        traced_steps(&addr, &mut mix, seconds, &tally, &counts, metrics)
    };
    server.join();
    result?;
    Ok(tally.into_inner().expect("tally lock"))
}

/// The traced run: 20 req/s untraced then traced (overhead and ledger),
/// then 10 and 30 req/s untraced (latency at a light and a heavy rate,
/// and the highest rate meeting the p90 limit).
fn traced_steps(
    addr: &str,
    mix: &mut Mix,
    seconds: f64,
    tally: &Mutex<Tally>,
    counts: &Counts,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let mut first = 0;
    let mut run_step = |secs: f64, rate: f64, trace: bool| {
        let bodies = mix.take((secs * rate).round() as usize);
        if trace {
            fase_obs::reset();
            fase_obs::enable();
        }
        let samples = step(addr, &bodies, first, rate, tally, counts);
        if trace {
            fase_obs::disable();
        }
        first += bodies.len();
        samples
    };
    let plain = run_step(seconds / 8.0, RATE, false);
    let traced = run_step(seconds / 8.0, RATE, true);
    let snap = fase_obs::snapshot();
    let r10 = run_step(seconds / 2.0, 10.0, false);
    let r30 = run_step(seconds / 4.0, 30.0, false);

    let served = snap
        .histograms
        .get("serve.request_ns")
        .ok_or("traced step recorded no requests")?;
    let service_ms = served.sum_ns as f64 / served.count.max(1) as f64 / 1e6;
    let from_send_ms: f64 = traced.iter().map(|s| s.from_send_ms).sum();
    ledger::record_layers(metrics, &snap, served.count as usize, CAMPAIGN_THREADS);
    metrics.set("serve.service_ms", service_ms);
    metrics.set(
        "serve.wait_ms",
        from_send_ms / traced.len() as f64 - service_ms,
    );
    // The bench attributes a request's time to waiting (client latency
    // from send minus service) and to the sweep the service runs; the
    // rest of the service is unattributed.
    let sweep_ns = ledger::root_ns(&snap, &["specan.sweep"]);
    metrics.set(
        "bench.unattributed_pct",
        ledger::unattributed_pct(
            from_send_ms * 1e6,
            from_send_ms * 1e6 - served.sum_ns as f64 + sweep_ns,
        ),
    );
    closedloop::record_overhead(metrics, &latencies(&plain), &latencies(&traced))?;

    let r20: Vec<Sample> = plain.iter().chain(&traced).copied().collect();
    let lags: Vec<f64> = r20.iter().map(|s| s.lag_ms).collect();
    metrics.set("bench.gen_lag_p90_ms", stats::percentile(&lags, 90.0)?);
    let p90_r10 = stats::percentile(&latencies(&r10), 90.0)?;
    let p90_r30 = stats::percentile(&latencies(&r30), 90.0)?;
    metrics.set("serve.p90_ms.r10", p90_r10);
    metrics.set("serve.p90_ms.r30", p90_r30);
    let mut slo_rps = 0.0;
    for (rate, samples) in [(10.0, &r10), (RATE, &r20), (30.0, &r30)] {
        let p90 = stats::percentile(&latencies(samples), 90.0)?;
        if p90 <= SLO_P90_MS && !openloop::lag_grows(samples, LAG_SLACK_MS) {
            slo_rps = rate;
        }
    }
    metrics.set("serve.slo_rps", slo_rps);
    metrics.set("bench.peak_rss_mb", crate::host::peak_rss_mb()?);

    let total = first as f64;
    metrics.set(
        "serve.rejected_ratio",
        counts.rejected.load(Ordering::Relaxed) as f64 / total,
    );
    metrics.set(
        "serve.cache_hit_ratio",
        counts.all_cached.load(Ordering::Relaxed) as f64 / total,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_is_seeded_and_half_repeat() {
        let (mut a, primed) = Mix::new(Draw::new(7), 7);
        let (mut b, _) = Mix::new(Draw::new(7), 7);
        let bodies = a.take(600);
        assert_eq!(bodies, b.take(600));
        let repeats = bodies
            .iter()
            .enumerate()
            .filter(|(i, body)| primed.contains(body) || bodies[..*i].contains(body))
            .count();
        assert_eq!(repeats, 300);
        let (mut c, _) = Mix::new(Draw::new(8), 8);
        assert_ne!(bodies, c.take(600));
    }

    #[test]
    fn responses_must_be_complete_and_find_the_regulator() {
        let ok = r#"{"tenant":"t","degraded":false,"cache_misses":0,"report":{"carriers": [{"frequency_hz": 315660.0}]}}"#;
        let (report, carriers) = check_response(200, ok).expect("complete response");
        assert_eq!(report, r#"{"carriers": [{"frequency_hz": 315660.0}]}"#);
        assert_eq!(carriers, vec![315_660.0]);
        let degraded = ok.replace("\"degraded\":false", "\"degraded\":true");
        assert!(check_response(200, &degraded).is_err());
        assert!(check_response(429, ok).is_err());
    }
}
