//! The multi-tenant sweep server: accept loop, worker pool, admission,
//! deadlines, fault containment, and graceful drain.
//!
//! ## Lifecycle
//!
//! ```text
//!              POST /v1/drain (or Server::drain)
//!   Accepting ───────────────────────────────────► Draining ──► Stopped
//!   admit + run           stop admitting; finish queued + running
//!                         work; at the drain deadline cancel every
//!                         outstanding token (jobs finish degraded)
//! ```
//!
//! ## One lock, one condvar
//!
//! The phase, the [`DrrQueues`] and the running jobs' cancel tokens sit
//! behind one mutex; every wait is on the one `wake` condvar, notified
//! by admit, job finished, drain, drain-deadline cancel and stop. The
//! acceptor blocks in `accept`; [`Server::join`] wakes it by connecting.
//!
//! ## Request path
//!
//! Each connection gets a short-lived handler thread: it parses the
//! request, admits it into the [`DrrQueues`] (or answers `429` with
//! `Retry-After`), and then *blocks on a rendezvous channel* until a
//! worker delivers the response. Workers pull jobs in
//! deficit-round-robin order, execute the sweep through
//! [`fase_specan::run_sweep`] with the job's [`CancelToken`] threaded
//! into the runner, and always reply — completed, degraded, structured
//! error, or cancelled — so no handler waits past its deadline plus a
//! bounded grace.
//!
//! ## Fault containment
//!
//! A failing capture surfaces as a typed error after the runner's own
//! retry budget; the worker then retries the whole sweep a bounded
//! number of times with exponential backoff (each attempt under a
//! perturbed fault schedule — a deterministic model of "the environment
//! glitched, try again"), cut short by a drain-deadline cancel. A panic
//! anywhere inside the sweep is caught at the job boundary: the request
//! gets a structured `500`, the worker thread and every other tenant
//! keep going.

use crate::http::{read_request, HttpError, Request, Response};
use crate::protocol::{
    cancelled_body, error_body, pair_by_name, sweep_body, sweep_seeds, system_factory, SweepRequest,
};
use crate::queue::{AdmissionError, DrrQueues, QueueCaps};
use fase_core::{par::panic_message, FaseError};
use fase_obs::json::quote;
use fase_obs::Recorder;
use fase_specan::{CancelToken, FaultPlan, SweepOptions};
use std::collections::BTreeMap;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc::{sync_channel, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Extra wall-clock grace a handler waits beyond the request deadline
/// for its worker to deliver the (possibly degraded) response. Covers
/// the cancellation latency of one in-flight capture plus scheduling.
const REPLY_GRACE_MS: u64 = 15_000;

/// Reply timeout for requests that carry no deadline at all.
const NO_DEADLINE_REPLY_MS: u64 = 600_000;

/// Pause after a failed `accept`, so a persistent `EMFILE` cannot spin.
const ACCEPT_ERROR_BACKOFF_MS: u64 = 20;

/// Whole-sweep retry attempts after a capture/worker failure (the
/// runner's own per-capture retries happen below this).
const MAX_RETRIES: u32 = 2;

/// Everything configurable about a server instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port `0` to let the OS pick (tests do).
    pub addr: String,
    /// Worker threads executing sweeps (minimum 1).
    pub workers: usize,
    /// Admission-control limits and the DRR quantum.
    pub caps: QueueCaps,
    /// Shared capture-cache directory; also what makes restart-resume
    /// work. `None` serves every request uncached.
    pub cache_dir: Option<PathBuf>,
    /// Deadline applied to requests that do not carry their own,
    /// milliseconds; `0` means "no default deadline".
    pub default_deadline_ms: u64,
    /// How long a drain lets accepted work run before cancelling every
    /// outstanding token, milliseconds.
    pub drain_deadline_ms: u64,
    /// Capture helpers per sweep. Kept at 1 so the worker pool, not the
    /// campaign, is the unit of parallelism: a sweep's worker analyses
    /// inline while it leads its capture pool (`fase_core::par`); only a
    /// fully cached sweep's analysis takes `FASE_THREADS` threads.
    pub campaign_threads: usize,
    /// Metrics sink; defaults to a detached recorder so the server
    /// never pollutes (or races) the process-wide one.
    pub recorder: Recorder,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            caps: QueueCaps::default(),
            cache_dir: None,
            default_deadline_ms: 60_000,
            drain_deadline_ms: 10_000,
            campaign_threads: 1,
            recorder: Recorder::detached(),
        }
    }
}

/// Server lifecycle phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServePhase {
    /// Admitting and executing new work.
    Accepting,
    /// No new work; finishing what was already accepted.
    Draining,
    /// Workers have exited; the listener is gone or about to be.
    Stopped,
}

impl ServePhase {
    /// Stable lowercase name used in JSON bodies.
    pub fn as_str(self) -> &'static str {
        match self {
            ServePhase::Accepting => "accepting",
            ServePhase::Draining => "draining",
            ServePhase::Stopped => "stopped",
        }
    }
}

/// An admitted request waiting for (or receiving) execution.
#[derive(Debug)]
struct QueuedJob {
    request: SweepRequest,
    token: CancelToken,
    reply: SyncSender<Response>,
}

/// Everything the server's threads coordinate on, behind one lock.
#[derive(Debug)]
struct State {
    phase: ServePhase,
    queues: DrrQueues<QueuedJob>,
    /// Cancel tokens of the jobs executing now, for the drain deadline,
    /// keyed by the index of the one worker running each.
    running: BTreeMap<usize, CancelToken>,
}

impl State {
    /// Every admitted request has been answered.
    fn quiesced(&self) -> bool {
        self.queues.is_empty() && self.running.is_empty()
    }
}

/// State shared by the accept loop, handlers, and workers.
#[derive(Debug)]
struct Shared {
    config: ServeConfig,
    state: Mutex<State>,
    /// Notified by admit, job finished, drain, deadline cancel and stop.
    wake: Condvar,
}

/// Locks a mutex, riding through poisoning: a worker that panicked
/// while holding a lock must not take the whole server down with it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    fn phase(&self) -> ServePhase {
        lock(&self.state).phase
    }

    /// Blocks on `wake` while `blocked` holds, for at most `timeout`
    /// when one is given, and returns the guard.
    fn block_while(
        &self,
        timeout: Option<Duration>,
        blocked: impl FnMut(&mut State) -> bool,
    ) -> MutexGuard<'_, State> {
        let guard = lock(&self.state);
        match timeout {
            None => self
                .wake
                .wait_while(guard, blocked)
                .unwrap_or_else(PoisonError::into_inner),
            Some(timeout) => {
                self.wake
                    .wait_timeout_while(guard, timeout, blocked)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0
            }
        }
    }
}

/// A running sweep server. Start it with [`Server::start`]; stop it with
/// [`Server::drain`] + [`Server::join`] (or just [`Server::join`], which
/// drains first). Dropping without joining leaks the worker threads
/// until process exit — fine for tests, rude for daemons.
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    workers: Vec<JoinHandle<()>>,
    acceptor: JoinHandle<()>,
}

impl Server {
    /// Binds the listener and starts the worker pool and accept loop.
    ///
    /// # Errors
    ///
    /// * [`FaseError::InvalidConfig`] — unusable bind address.
    /// * [`FaseError::Worker`] — the OS refused the socket or a thread.
    pub fn start(config: ServeConfig) -> Result<Server, FaseError> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| FaseError::invalid_config(format!("bind {}: {e}", config.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| FaseError::worker(format!("local_addr: {e}")))?;

        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                phase: ServePhase::Accepting,
                queues: DrrQueues::new(config.caps),
                running: BTreeMap::new(),
            }),
            wake: Condvar::new(),
            config,
        });

        let mut workers = Vec::with_capacity(shared.config.workers.max(1));
        // fase-lint: allow(C-cancel) -- bounded spawn loop (one iteration per configured worker); worker_loop itself exits once the phase leaves Accepting
        for i in 0..shared.config.workers.max(1) {
            let worker_shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("fase-serve-worker-{i}"))
                .spawn(move || worker_loop(&worker_shared, i))
                .map_err(|e| FaseError::worker(format!("spawn worker: {e}")))?;
            workers.push(handle);
        }
        let accept_shared = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("fase-serve-accept".to_owned())
            .spawn(move || accept_loop(&listener, &accept_shared))
            .map_err(|e| FaseError::worker(format!("spawn acceptor: {e}")))?;

        Ok(Server {
            shared,
            addr,
            workers,
            acceptor,
        })
    }

    /// The bound address (with the OS-assigned port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current lifecycle phase.
    pub fn phase(&self) -> ServePhase {
        self.shared.phase()
    }

    /// Begins a graceful drain: admission stops immediately; queued and
    /// running work continues; when the drain deadline expires, every
    /// outstanding cancel token fires and the remaining jobs finish
    /// degraded. Idempotent.
    pub fn drain(&self) {
        begin_drain(&self.shared);
    }

    /// Blocks until a drain begins or `timeout` (if any) passes,
    /// whichever comes first. Returns whether a drain began.
    pub fn wait_for_drain(&self, timeout: Option<Duration>) -> bool {
        self.shared
            .block_while(timeout, |s| s.phase == ServePhase::Accepting)
            .phase
            != ServePhase::Accepting
    }

    /// Drains (if not already draining) and blocks until every accepted
    /// request has been answered, then stops the workers and acceptor.
    pub fn join(self) {
        begin_drain(&self.shared);
        self.shared.block_while(None, |s| !s.quiesced()).phase = ServePhase::Stopped;
        self.shared.wake.notify_all();
        for handle in self.workers {
            let _ = handle.join();
        }
        // A connection of our own wakes the acceptor to see `Stopped`;
        // if it cannot connect, the acceptor is left behind, not awaited.
        if TcpStream::connect(wake_addr(self.addr)).is_ok() {
            let _ = self.acceptor.join();
        }
    }
}

/// The bound address with an unspecified IP replaced by loopback.
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => (Ipv4Addr::LOCALHOST, addr.port()).into(),
        IpAddr::V6(ip) if ip.is_unspecified() => (Ipv6Addr::LOCALHOST, addr.port()).into(),
        _ => addr,
    }
}

/// Flips the phase to draining (once) and arms the drain-deadline
/// watchdog that cancels whatever is still outstanding when it fires.
fn begin_drain(shared: &Arc<Shared>) {
    {
        let mut state = lock(&shared.state);
        if state.phase != ServePhase::Accepting {
            return;
        }
        state.phase = ServePhase::Draining;
    }
    shared.wake.notify_all();
    shared.config.recorder.count("serve.drains", 1);
    let watchdog = Arc::clone(shared);
    let deadline = Duration::from_millis(shared.config.drain_deadline_ms);
    let _ = std::thread::Builder::new()
        .name("fase-serve-drain".to_owned())
        .spawn(move || {
            // Each finished job notifies: a fast drain frees this early.
            let state = watchdog.block_while(Some(deadline), |s| !s.quiesced());
            if state.quiesced() {
                return;
            }
            // Deadline hit: cancel everything still queued or running.
            // Queued jobs stay queued — a worker pulls each one, sees
            // the fired token, and replies degraded, so every admitted
            // request is still answered.
            state.queues.for_each(|job| job.token.cancel());
            for token in state.running.values() {
                token.cancel();
            }
            watchdog.wake.notify_all();
            watchdog.config.recorder.count("serve.drain_cancels", 1);
        });
}

/// Accepts connections until the server stops; each connection gets a
/// short-lived handler thread.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        if shared.phase() == ServePhase::Stopped {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                let handler_shared = Arc::clone(shared);
                let _ = std::thread::Builder::new()
                    .name("fase-serve-conn".to_owned())
                    .spawn(move || handle_connection(stream, &handler_shared));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(ACCEPT_ERROR_BACKOFF_MS)),
        }
    }
}

/// Parses one request, routes it, and writes the response.
fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    let response = match read_request(&mut stream) {
        Ok(request) => route(&request, shared),
        Err(e) => {
            let status = match &e {
                HttpError::TooLarge(_) => 413,
                HttpError::Malformed(_) => 400,
                HttpError::Io(_) => 408,
            };
            Response::json(status, error_body("bad-http", &format!("{e}"), None))
        }
    };
    let _ = response.write_to(&mut stream);
}

/// Routes a parsed request to its endpoint.
fn route(request: &Request, shared: &Arc<Shared>) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/sweep") => handle_sweep(&request.body, shared),
        ("GET", "/v1/health") => Response::json(200, health_body(shared)),
        ("GET", "/v1/metrics") => Response::json(200, shared.config.recorder.snapshot().to_json()),
        ("POST", "/v1/drain") => {
            begin_drain(shared);
            Response::json(
                202,
                format!(
                    "{{\"phase\":\"draining\",\"drain_deadline_ms\":{}}}",
                    shared.config.drain_deadline_ms
                ),
            )
        }
        (_, "/v1/sweep" | "/v1/health" | "/v1/metrics" | "/v1/drain") => Response::json(
            405,
            error_body("method-not-allowed", "wrong method for this path", None),
        ),
        _ => Response::json(404, error_body("not-found", "unknown path", None)),
    }
}

/// The `/v1/health` body.
fn health_body(shared: &Arc<Shared>) -> String {
    let state = lock(&shared.state);
    format!(
        "{{\"phase\":{},\"queued\":{},\"active\":{},\"workers\":{}}}",
        quote(state.phase.as_str()),
        state.queues.len(),
        state.running.len(),
        shared.config.workers.max(1)
    )
}

/// The `503` every sweep gets once the server stops accepting work.
fn draining_response() -> Response {
    Response::json(
        503,
        error_body(
            "draining",
            "server is draining; not accepting new work",
            None,
        ),
    )
}

/// The full `/v1/sweep` admission + wait path.
fn handle_sweep(body: &str, shared: &Arc<Shared>) -> Response {
    if shared.phase() != ServePhase::Accepting {
        return draining_response();
    }
    let request = match SweepRequest::from_json(body) {
        Ok(r) => r,
        Err(msg) => return Response::json(400, error_body("bad-request", &msg, None)),
    };
    let recorder = &shared.config.recorder;
    recorder.count_labeled("serve.requests", &request.tenant, 1);

    // Every job's token is armed (drain must be able to cancel it) and
    // the deadline starts at admission: time spent queued counts.
    let deadline_ms = request
        .deadline_ms
        .or((shared.config.default_deadline_ms > 0).then_some(shared.config.default_deadline_ms));
    let mut token = CancelToken::new();
    if let Some(ms) = deadline_ms {
        token = token.with_deadline_in_ms(ms);
    }
    if let Some(budget) = request.max_captures {
        token = token.with_capture_budget(budget);
    }

    let (reply_tx, reply_rx) = sync_channel(1);
    let tenant = request.tenant.clone();
    let job = QueuedJob {
        request,
        token,
        reply: reply_tx,
    };
    {
        let mut state = lock(&shared.state);
        // Re-check under the lock so no job is admitted after a drain
        // began (the watchdog iterates this queue exactly once).
        if state.phase != ServePhase::Accepting {
            return draining_response();
        }
        let cost = job.request.cost();
        if let Err(rejection) = state.queues.admit(&tenant, cost, job) {
            recorder.count_labeled("serve.rejected", &tenant, 1);
            let retry_ms = rejection.retry_after_ms();
            let kind = match rejection {
                AdmissionError::TenantFull { .. } => "tenant-queue-full",
                AdmissionError::GlobalFull { .. } => "global-queue-full",
            };
            let message = rejection.to_string();
            return Response::json(429, error_body(kind, &message, Some(retry_ms)))
                .with_header("Retry-After", retry_ms.div_ceil(1_000).max(1).to_string());
        }
    }
    shared.wake.notify_all();

    // The worker always replies (even for cancelled jobs), so the only
    // way to hit this timeout is a capture overrunning the cancellation
    // grace — answered with a structured 500, never a hang.
    let wait_ms = deadline_ms
        .unwrap_or(NO_DEADLINE_REPLY_MS)
        .saturating_add(REPLY_GRACE_MS);
    match reply_rx.recv_timeout(Duration::from_millis(wait_ms)) {
        Ok(response) => response,
        Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => {
            recorder.count_labeled("serve.reply_timeouts", &tenant, 1);
            Response::json(
                500,
                error_body(
                    "internal-timeout",
                    "worker did not reply within the deadline grace",
                    None,
                ),
            )
        }
    }
}

/// Worker thread: pull jobs in DRR order until the queue is empty and
/// the server no longer accepts work, executing each inside a panic
/// boundary. `index` keys this worker's entry in `State::running`.
fn worker_loop(shared: &Arc<Shared>, index: usize) {
    loop {
        let job = {
            let mut state = shared.block_while(None, |s| {
                s.queues.is_empty() && s.phase == ServePhase::Accepting
            });
            // Empty past the wait: the server stopped accepting. Popping
            // and registering under one guard means neither `quiesced`
            // nor the drain watchdog's cancel can miss a job.
            let Some(job) = state.queues.pop() else {
                return;
            };
            state.running.insert(index, job.token.clone());
            job
        };

        let response = execute_job(shared, &job);
        // The handler may have timed out and gone; that is its problem,
        // not the worker's.
        let _ = job.reply.try_send(response);

        lock(&shared.state).running.remove(&index);
        shared.wake.notify_all();
    }
}

/// Executes one job start-to-finish: pre-cancel check, the retry loop,
/// and the panic boundary. Always produces a response.
fn execute_job(shared: &Arc<Shared>, job: &QueuedJob) -> Response {
    let recorder = &shared.config.recorder;
    let tenant = &job.request.tenant;
    if let Some(cause) = job.token.cause() {
        // Cancelled while queued (deadline or drain): still a structured,
        // degraded 200 — the request was accepted, so it gets an answer.
        recorder.count_labeled("serve.degraded", tenant, 1);
        return Response::json(200, cancelled_body(tenant, cause));
    }
    let started = fase_obs::monotonic_ns();
    let outcome = catch_unwind(AssertUnwindSafe(|| run_with_retries(shared, job)));
    let elapsed_ns = fase_obs::monotonic_ns().saturating_sub(started);
    recorder.observe_ns("serve.request_ns", elapsed_ns);
    // Feed the measured cost back into admission control so 429 retry
    // hints track what a request actually costs on this box right now.
    lock(&shared.state)
        .queues
        .observe_service_ms(elapsed_ns / 1_000_000);
    match outcome {
        Ok(response) => response,
        Err(payload) => {
            recorder.count_labeled("serve.panics", tenant, 1);
            let msg = panic_message(payload.as_ref());
            Response::json(
                500,
                error_body("worker-panic", &format!("sweep panicked: {msg}"), None),
            )
        }
    }
}

/// The retry loop around one sweep: typed capture/worker failures are
/// retried with exponential backoff under a perturbed fault schedule;
/// everything else maps straight to a response.
fn run_with_retries(shared: &Arc<Shared>, job: &QueuedJob) -> Response {
    let recorder = &shared.config.recorder;
    let request = &job.request;
    let Some(make) = system_factory(&request.system) else {
        return Response::json(400, error_body("bad-request", "unknown system", None));
    };
    let Some(pair) = pair_by_name(&request.pair) else {
        return Response::json(400, error_body("bad-request", "unknown pair", None));
    };
    let config = request.sweep_config();
    let seed = request.seed;
    let seeds = sweep_seeds(&request.system, seed);

    let mut attempt: u32 = 0;
    loop {
        let mut options = SweepOptions::default();
        options.campaign.threads = Some(shared.config.campaign_threads.max(1));
        options.campaign.max_attempts = request.retries.saturating_add(1);
        options.campaign.cancel = job.token.clone();
        options.campaign.recorder = recorder.clone();
        if let Some(n) = request.max_fft {
            options.campaign.max_fft = n;
        }
        if request.fault_rate > 0.0 {
            // Attempt 0 uses the request's own schedule (so clean runs
            // and cache keys are reproducible); later service-level
            // attempts perturb it — the deterministic stand-in for "the
            // environment glitched, capture again".
            let base = request.fault_seed.unwrap_or(seeds.fault_seed);
            let fault_seed = base.wrapping_add(u64::from(attempt));
            options.campaign.fault_plan =
                Some(FaultPlan::new(fault_seed).with_rate(request.fault_rate));
        }
        options.cache_dir = shared.config.cache_dir.clone();

        match fase_specan::run_sweep(
            &config,
            &seeds.system_id,
            pair,
            |_| make(seed),
            seeds.capture_seed,
            &options,
        ) {
            Ok(outcome) => {
                let degraded = outcome.report.is_degraded() || outcome.cancelled;
                let key = if degraded {
                    "serve.degraded"
                } else {
                    "serve.completed"
                };
                recorder.count_labeled(key, &request.tenant, 1);
                return Response::json(200, sweep_body(&request.tenant, &outcome));
            }
            // The scheduler degrades cancelled sweeps to partial reports;
            // a raw Cancelled can only mean "nothing finished at all".
            Err(FaseError::Cancelled(reason)) => {
                recorder.count_labeled("serve.degraded", &request.tenant, 1);
                return Response::json(200, cancelled_body(&request.tenant, &reason));
            }
            Err(
                e @ (FaseError::Worker(_) | FaseError::CaptureFailed { .. } | FaseError::Cache(_)),
            ) => {
                if attempt < MAX_RETRIES && !job.token.is_cancelled() {
                    recorder.count_labeled("serve.retries", &request.tenant, 1);
                    backoff(shared, attempt, &job.token);
                    attempt += 1;
                    continue;
                }
                recorder.count_labeled("serve.failed", &request.tenant, 1);
                return Response::json(500, error_body(error_kind(&e), &e.to_string(), None));
            }
            Err(e) => {
                recorder.count_labeled("serve.failed", &request.tenant, 1);
                return Response::json(400, error_body(error_kind(&e), &e.to_string(), None));
            }
        }
    }
}

/// Exponential backoff (50 ms doubling, capped at 800 ms), cut short
/// when the drain watchdog cancels the token and notifies `wake`.
fn backoff(shared: &Shared, attempt: u32, token: &CancelToken) {
    let total = 50u64.saturating_mul(1 << attempt.min(4)).min(800);
    drop(shared.block_while(Some(Duration::from_millis(total)), |_| {
        !token.is_cancelled()
    }));
}

/// Stable machine-readable label for each error variant.
fn error_kind(e: &FaseError) -> &'static str {
    match e {
        FaseError::InvalidConfig(_) => "invalid-config",
        FaseError::InvalidSpectra(_) => "invalid-spectra",
        FaseError::Spectrum(_) => "spectrum",
        FaseError::Worker(_) => "worker",
        FaseError::CaptureFailed { .. } => "capture-failed",
        FaseError::Cache(_) => "cache",
        FaseError::Cancelled(_) => "cancelled",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::client_request;

    fn tiny_server() -> Server {
        Server::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn health_metrics_and_unknown_paths() {
        let server = tiny_server();
        let addr = server.addr().to_string();

        let health = client_request(&addr, "GET", "/v1/health", "").unwrap();
        assert_eq!(health.status, 200);
        assert!(
            health.body.contains("\"phase\":\"accepting\""),
            "{}",
            health.body
        );
        assert!(health.body.contains("\"queued\":0"), "{}", health.body);

        let metrics = client_request(&addr, "GET", "/v1/metrics", "").unwrap();
        assert_eq!(metrics.status, 200);
        assert!(metrics.body.starts_with('{'), "{}", metrics.body);

        let missing = client_request(&addr, "GET", "/nope", "").unwrap();
        assert_eq!(missing.status, 404);
        let wrong = client_request(&addr, "GET", "/v1/sweep", "").unwrap();
        assert_eq!(wrong.status, 405);

        server.join();
    }

    #[test]
    fn bad_sweep_bodies_get_structured_400s() {
        let server = tiny_server();
        let addr = server.addr().to_string();
        let cases = [
            "not json at all",
            r#"{"lo":1,"hi":2}"#,
            r#"{"tenant":"a","lo":2000,"hi":1000}"#,
            r#"{"tenant":"a","lo":1,"hi":2,"system":"vax"}"#,
        ];
        for body in cases {
            let reply = client_request(&addr, "POST", "/v1/sweep", body).unwrap();
            assert_eq!(reply.status, 400, "{body}: {}", reply.body);
            assert!(
                reply.body.contains("\"error\":\"bad-request\""),
                "{}",
                reply.body
            );
        }
        server.join();
    }

    #[test]
    fn drain_refuses_new_sweeps_and_join_stops() {
        let server = tiny_server();
        let addr = server.addr().to_string();
        let accepted = client_request(&addr, "POST", "/v1/drain", "").unwrap();
        assert_eq!(accepted.status, 202);
        assert!(accepted.body.contains("draining"), "{}", accepted.body);

        let refused = client_request(
            &addr,
            "POST",
            "/v1/sweep",
            r#"{"tenant":"a","lo":250000,"hi":400000}"#,
        )
        .unwrap();
        assert_eq!(refused.status, 503);
        assert!(
            refused.body.contains("\"error\":\"draining\""),
            "{}",
            refused.body
        );

        assert_eq!(server.phase(), ServePhase::Draining);
        server.join();
    }

    #[test]
    fn idle_server_answers_without_a_polling_delay() {
        let server = tiny_server();
        let addr = server.addr().to_string();
        let mut round_trips_ms: Vec<f64> = (0..20)
            .map(|_| {
                let started = std::time::Instant::now();
                let health = client_request(&addr, "GET", "/v1/health", "").unwrap();
                assert_eq!(health.status, 200);
                started.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        round_trips_ms.sort_by(f64::total_cmp);
        let median = (round_trips_ms[9] + round_trips_ms[10]) / 2.0;
        assert!(
            median < 5.0,
            "median idle round trip {median:.2} ms: {round_trips_ms:?}"
        );
        server.join();
    }

    /// A server whose cache directory is a regular file, so every sweep
    /// attempt fails with `FaseError::Cache` before capturing anything.
    /// Returns the server and the file to remove afterwards.
    fn broken_cache_server(tag: &str, drain_deadline_ms: u64) -> (Server, PathBuf) {
        let file = std::env::temp_dir().join(format!(
            "fase-serve-broken-cache-{tag}-{}",
            std::process::id()
        ));
        std::fs::write(&file, b"not a directory").unwrap();
        let server = Server::start(ServeConfig {
            workers: 1,
            cache_dir: Some(file.clone()),
            drain_deadline_ms,
            ..ServeConfig::default()
        })
        .unwrap();
        (server, file)
    }

    fn counter(server: &Server, name: &str) -> u64 {
        let snapshot = server.shared.config.recorder.snapshot();
        snapshot.counters.get(name).copied().unwrap_or(0)
    }

    const SWEEP: &str = r#"{"tenant":"a","lo":250000,"hi":400000}"#;

    #[test]
    fn cache_failures_are_retried_then_answered_500() {
        let (server, file) = broken_cache_server("retries", 10_000);
        let addr = server.addr().to_string();
        let reply = client_request(&addr, "POST", "/v1/sweep", SWEEP).unwrap();
        assert_eq!(reply.status, 500, "{}", reply.body);
        assert!(reply.body.contains("\"error\":\"cache\""), "{}", reply.body);
        assert_eq!(counter(&server, "serve.retries.a"), u64::from(MAX_RETRIES));
        assert_eq!(counter(&server, "serve.failed.a"), 1);
        server.join();
        let _ = std::fs::remove_file(file);
    }

    #[test]
    fn drain_deadline_cuts_a_retry_backoff_short() {
        // A zero drain deadline cancels the job as soon as the drain
        // begins, inside the 50 ms backoff after the first retry; left
        // alone, the job would retry again and back off another 100 ms.
        let (server, file) = broken_cache_server("drain", 0);
        let addr = server.addr().to_string();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(client_request(&addr, "POST", "/v1/sweep", SWEEP));
        });
        // The first retry has been counted: the job is backing off.
        let started = std::time::Instant::now();
        while counter(&server, "serve.retries.a") == 0 {
            assert!(
                started.elapsed() < Duration::from_secs(10),
                "the sweep never retried"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        server.drain();
        let reply = rx
            .recv_timeout(Duration::from_secs(2))
            .expect("no reply within 2 s of the drain")
            .unwrap();
        assert_eq!(reply.status, 500, "{}", reply.body);
        assert!(reply.body.contains("\"error\":\"cache\""), "{}", reply.body);
        assert_eq!(counter(&server, "serve.retries.a"), 1, "backoff not cut");
        assert_eq!(counter(&server, "serve.drain_cancels"), 1);
        server.join();
        let _ = std::fs::remove_file(file);
    }

    #[test]
    fn phase_names_are_stable() {
        assert_eq!(ServePhase::Accepting.as_str(), "accepting");
        assert_eq!(ServePhase::Draining.as_str(), "draining");
        assert_eq!(ServePhase::Stopped.as_str(), "stopped");
    }

    #[test]
    fn error_kinds_cover_every_variant() {
        assert_eq!(
            error_kind(&FaseError::invalid_config("x")),
            "invalid-config"
        );
        assert_eq!(error_kind(&FaseError::worker("x")), "worker");
        assert_eq!(error_kind(&FaseError::cache("x")), "cache");
        assert_eq!(error_kind(&FaseError::cancelled("x")), "cancelled");
    }
}
