//! A deterministic multi-tenant load generator for the sweep server.
//!
//! Drives `POST /v1/sweep` from several client threads with a seeded,
//! reproducible request mix: per-request campaign seeds derive from
//! `mix_seed(seed, tenant, request)`, so two runs of the same spec send
//! byte-identical request bodies in the same per-thread order. Wall
//! times of course vary; the *structure* of the run does not, which is
//! what the robustness demo and the latency benchmark need.

use crate::http::client_request;
use crate::protocol::SweepRequest;
use fase_core::FaseError;
use fase_dsp::rng::mix_seed;

/// What load to offer.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Server address (`host:port`).
    pub addr: String,
    /// Number of tenants (`tenant-0` .. `tenant-N-1`).
    pub tenants: usize,
    /// Requests per tenant.
    pub requests: usize,
    /// Concurrent client threads the requests are spread across.
    pub concurrency: usize,
    /// Master seed for the request mix.
    pub seed: u64,
    /// Per-class capture impairment probability injected server-side.
    pub fault_rate: f64,
    /// Per-request deadline, milliseconds.
    pub deadline_ms: Option<u64>,
    /// Per-request capture budget.
    pub max_captures: Option<u64>,
    /// Honor `Retry-After` on `429` and retry (up to three times) so a
    /// bursty spec still completes; `false` records the rejection and
    /// moves on.
    pub retry_rejected: bool,
}

impl Default for LoadSpec {
    fn default() -> LoadSpec {
        LoadSpec {
            addr: "127.0.0.1:0".to_owned(),
            tenants: 4,
            requests: 4,
            concurrency: 8,
            seed: 42,
            fault_rate: 0.0,
            deadline_ms: Some(30_000),
            max_captures: None,
            retry_rejected: true,
        }
    }
}

impl LoadSpec {
    /// The request body for `(tenant, index)` — the same small, fast
    /// campaign family the scheduler's own tests sweep (the 315 kHz
    /// DRAM regulator neighborhood), with a per-request seed.
    pub fn request_for(&self, tenant: usize, index: usize) -> SweepRequest {
        SweepRequest {
            tenant: format!("tenant-{tenant}"),
            system: "i7".to_owned(),
            pair: "ldm-ldl1".to_owned(),
            lo: 300_000.0,
            hi: 330_000.0,
            resolution: 500.0,
            bands: 2,
            overlap: 2_000.0,
            f_alt1: 30_000.0,
            f_delta: 2_000.0,
            alternations: 3,
            averages: 1,
            // 53 bits: the server refuses integers it cannot parse exactly.
            seed: mix_seed(self.seed, ((tenant as u64) << 32) | index as u64) >> 11,
            fault_rate: self.fault_rate,
            fault_seed: None,
            retries: 2,
            max_fft: Some(1 << 12),
            deadline_ms: self.deadline_ms,
            max_captures: self.max_captures,
        }
    }
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// `200` with a complete report.
    Ok,
    /// `200` with a degraded (partial or cancelled) report.
    Degraded,
    /// `429` that was not (or could not be) retried into completion.
    Rejected,
    /// Anything else: `5xx`, transport failure, malformed reply.
    Error,
}

/// One finished request's accounting.
#[derive(Debug, Clone, Copy)]
struct Sample {
    outcome: Outcome,
    latency_ms: f64,
    rejections_seen: u32,
}

/// Aggregated results of a load run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Requests sent (excluding internal 429 retries).
    pub sent: usize,
    /// Complete `200` responses.
    pub ok: usize,
    /// Degraded `200` responses (deadline, budget, or drain cut in).
    pub degraded: usize,
    /// Requests that ended rejected (`429`).
    pub rejected: usize,
    /// Requests that ended in an error (5xx or transport).
    pub errors: usize,
    /// `429` responses observed in total, including retried ones.
    pub rejections_seen: usize,
    /// Median end-to-end latency of answered requests, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile latency of answered requests, milliseconds.
    pub p99_ms: f64,
    /// Worst latency of answered requests, milliseconds.
    pub max_ms: f64,
    /// Whole-run wall time, milliseconds.
    pub wall_ms: f64,
    /// Answered requests per second over the whole run.
    pub throughput_rps: f64,
}

impl LoadReport {
    /// Deterministic-key JSON for `fase-cli load --json`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"sent\":{},\"ok\":{},\"degraded\":{},\"rejected\":{},\"errors\":{},\
             \"rejections_seen\":{},\"p50_ms\":{:.3},\"p99_ms\":{:.3},\"max_ms\":{:.3},\
             \"wall_ms\":{:.3},\"throughput_rps\":{:.3}}}",
            self.sent,
            self.ok,
            self.degraded,
            self.rejected,
            self.errors,
            self.rejections_seen,
            self.p50_ms,
            self.p99_ms,
            self.max_ms,
            self.wall_ms,
            self.throughput_rps
        )
    }

    /// Answered requests: everything that got a `200`.
    pub fn answered(&self) -> usize {
        self.ok + self.degraded
    }
}

/// Linearly-interpolated percentile, delegating to
/// [`fase_dsp::stats::percentile`].
///
/// The previous nearest-rank variant rounded `p/100 · (n−1)` to the
/// closest integer rank, which at small sample counts (n < 100) made p99
/// degenerate to the maximum — or, one rank earlier, undershoot it — so
/// a reported p99 jumped discontinuously with the request count.
/// Interpolating between the two bracketing ranks is continuous in both
/// `p` and `n`.
fn percentile(latencies_ms: &[f64], p: f64) -> f64 {
    fase_dsp::stats::percentile(latencies_ms, p)
}

/// Sends one request, following `Retry-After` when asked to.
fn send_one(spec: &LoadSpec, body: &str) -> Sample {
    let started = fase_obs::monotonic_ns();
    let mut rejections_seen = 0u32;
    let mut attempts = 0u32;
    // fase-lint: allow(C-cancel) -- client-side load generator: retries are bounded at MAX_ATTEMPTS and no CancelToken flows here
    loop {
        let reply = match client_request(&spec.addr, "POST", "/v1/sweep", body) {
            Ok(reply) => reply,
            Err(_) => {
                return Sample {
                    outcome: Outcome::Error,
                    latency_ms: elapsed_ms(started),
                    rejections_seen,
                }
            }
        };
        match reply.status {
            200 => {
                let outcome = if reply.body.contains("\"degraded\":true") {
                    Outcome::Degraded
                } else {
                    Outcome::Ok
                };
                return Sample {
                    outcome,
                    latency_ms: elapsed_ms(started),
                    rejections_seen,
                };
            }
            429 => {
                rejections_seen += 1;
                if !spec.retry_rejected || attempts >= 3 {
                    return Sample {
                        outcome: Outcome::Rejected,
                        latency_ms: elapsed_ms(started),
                        rejections_seen,
                    };
                }
                let wait_s: u64 = reply
                    .header("retry-after")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(1);
                std::thread::sleep(std::time::Duration::from_millis(
                    wait_s.saturating_mul(1_000).min(5_000),
                ));
                attempts += 1;
            }
            _ => {
                return Sample {
                    outcome: Outcome::Error,
                    latency_ms: elapsed_ms(started),
                    rejections_seen,
                }
            }
        }
    }
}

fn elapsed_ms(started_ns: u64) -> f64 {
    fase_obs::monotonic_ns().saturating_sub(started_ns) as f64 / 1.0e6
}

/// Runs the load and aggregates the outcome.
///
/// # Errors
///
/// [`FaseError::InvalidConfig`] when the spec is degenerate (zero
/// tenants, requests, or concurrency). Individual request failures are
/// *not* errors; they are counted in the report.
pub fn run_load(spec: &LoadSpec) -> Result<LoadReport, FaseError> {
    if spec.tenants == 0 || spec.requests == 0 || spec.concurrency == 0 {
        return Err(FaseError::invalid_config(
            "load spec needs tenants, requests, and concurrency all >= 1",
        ));
    }
    // Interleave tenants so concurrent threads exercise cross-tenant
    // fairness rather than one tenant at a time.
    let mut jobs: Vec<String> = Vec::with_capacity(spec.tenants * spec.requests);
    for index in 0..spec.requests {
        for tenant in 0..spec.tenants {
            jobs.push(spec.request_for(tenant, index).to_json());
        }
    }
    let started = fase_obs::monotonic_ns();
    let mut handles = Vec::with_capacity(spec.concurrency);
    // fase-lint: allow(C-cancel) -- bounded spawn loop, one lane per concurrency slot; lanes end with the run_ms wall-clock window
    for lane in 0..spec.concurrency {
        let bodies: Vec<String> = jobs
            .iter()
            .skip(lane)
            .step_by(spec.concurrency)
            .cloned()
            .collect();
        let lane_spec = spec.clone();
        handles.push(std::thread::spawn(move || {
            bodies
                .iter()
                .map(|body| send_one(&lane_spec, body))
                .collect::<Vec<Sample>>()
        }));
    }
    let mut samples = Vec::with_capacity(jobs.len());
    let mut panicked_lanes = 0usize;
    for handle in handles {
        match handle.join() {
            Ok(lane_samples) => samples.extend(lane_samples),
            Err(_) => panicked_lanes += 1,
        }
    }
    let wall_ms = elapsed_ms(started);

    let mut latencies: Vec<f64> = samples
        .iter()
        .filter(|s| matches!(s.outcome, Outcome::Ok | Outcome::Degraded))
        .map(|s| s.latency_ms)
        .collect();
    latencies.sort_by(f64::total_cmp);
    let count = |o: Outcome| samples.iter().filter(|s| s.outcome == o).count();
    let answered = latencies.len();
    Ok(LoadReport {
        sent: jobs.len(),
        ok: count(Outcome::Ok),
        degraded: count(Outcome::Degraded),
        rejected: count(Outcome::Rejected),
        errors: count(Outcome::Error) + panicked_lanes,
        rejections_seen: samples.iter().map(|s| s.rejections_seen as usize).sum(),
        p50_ms: percentile(&latencies, 50.0),
        p99_ms: percentile(&latencies, 99.0),
        max_ms: latencies.last().copied().unwrap_or(0.0),
        wall_ms,
        throughput_rps: if wall_ms > 0.0 {
            answered as f64 / (wall_ms / 1_000.0)
        } else {
            0.0
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_mix_is_deterministic() {
        let spec = LoadSpec::default();
        let a = spec.request_for(1, 2);
        let b = spec.request_for(1, 2);
        assert_eq!(a, b);
        // Distinct (tenant, index) pairs get distinct seeds.
        assert_ne!(a.seed, spec.request_for(2, 1).seed);
        assert_eq!(a.tenant, "tenant-1");
        assert!(a.to_json().contains("\"max_fft\":4096"), "{}", a.to_json());
        // The server parses the request back to the same seed.
        let served = crate::SweepRequest::from_json(&a.to_json()).unwrap();
        assert_eq!(served.seed, a.seed);
    }

    #[test]
    fn percentiles_of_a_known_series() {
        let series: Vec<f64> = (1..=100).map(f64::from).collect();
        // Interpolated: rank 49.5 sits exactly between 50 and 51.
        assert_eq!(percentile(&series, 50.0), 50.5);
        assert!((percentile(&series, 99.0) - 99.01).abs() < 1e-9);
        assert_eq!(percentile(&series, 0.0), 1.0);
        assert_eq!(percentile(&series, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn small_sample_p99_interpolates_below_the_max() {
        // Regression for the nearest-rank `.round()` off-by-one: with
        // n = 10 the old code rounded rank 8.91 up to 9 and reported p99
        // == max, hiding the tail. Interpolation keeps p99 strictly
        // inside (second-largest, max) and continuous in n.
        let series: Vec<f64> = (1..=10).map(f64::from).collect();
        let p99 = percentile(&series, 99.0);
        assert!((p99 - 9.91).abs() < 1e-9, "{p99}");
        assert!(p99 < 10.0, "p99 must not degenerate to the max");
        assert_eq!(percentile(&series, 50.0), 5.5);
        let quad = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&quad, 50.0), 25.0);
        assert!((percentile(&quad, 99.0) - 39.7).abs() < 1e-9);
    }

    #[test]
    fn degenerate_specs_are_refused() {
        let spec = LoadSpec {
            tenants: 0,
            ..LoadSpec::default()
        };
        assert!(matches!(run_load(&spec), Err(FaseError::InvalidConfig(_))));
    }

    #[test]
    fn report_json_has_every_field() {
        let report = LoadReport {
            sent: 16,
            ok: 12,
            degraded: 2,
            rejected: 1,
            errors: 1,
            rejections_seen: 3,
            p50_ms: 10.5,
            p99_ms: 99.25,
            max_ms: 120.0,
            wall_ms: 800.0,
            throughput_rps: 17.5,
        };
        let json = report.to_json();
        for key in [
            "\"sent\":16",
            "\"ok\":12",
            "\"degraded\":2",
            "\"rejected\":1",
            "\"errors\":1",
            "\"rejections_seen\":3",
            "\"p50_ms\":10.500",
            "\"p99_ms\":99.250",
            "\"throughput_rps\":17.500",
        ] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
        assert_eq!(report.answered(), 14);
    }
}
