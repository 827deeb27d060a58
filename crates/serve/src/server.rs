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
//! glitched, try again"). A panic anywhere inside the sweep is caught at
//! the job boundary: the request gets a structured `500`, the worker
//! thread and every other tenant keep going.

use crate::http::{read_request, HttpError, Request, Response};
use crate::protocol::{
    cancelled_body, error_body, pair_by_name, sweep_body, system_factory, SweepRequest,
};
use crate::queue::{DrrQueues, QueueCaps};
use fase_core::FaseError;
use fase_obs::json::quote;
use fase_obs::Recorder;
use fase_specan::{CancelToken, FaultPlan, FaultRates, SweepOptions};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
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

/// How often blocked workers and waiters re-check the server phase.
const POLL_MS: u64 = 20;

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
    /// Whole-sweep retry attempts after a capture/worker failure (the
    /// runner's own per-capture retries happen below this).
    pub max_retries: u32,
    /// Threads each sweep campaign may use. Kept at 1 so the worker
    /// pool, not the campaign, is the unit of parallelism.
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
            max_retries: 2,
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

    fn from_u8(v: u8) -> ServePhase {
        match v {
            0 => ServePhase::Accepting,
            1 => ServePhase::Draining,
            _ => ServePhase::Stopped,
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

/// State shared by the accept loop, handlers, and workers.
#[derive(Debug)]
struct Shared {
    config: ServeConfig,
    queues: Mutex<DrrQueues<QueuedJob>>,
    wake: Condvar,
    phase: AtomicU8,
    /// Jobs currently executing on a worker.
    active: AtomicUsize,
    /// Cancel tokens of currently-executing jobs, for the drain
    /// deadline. Keyed by a serial so removal is exact.
    running: Mutex<Vec<(u64, CancelToken)>>,
    next_serial: AtomicUsize,
}

/// Locks a mutex, riding through poisoning: a worker that panicked
/// while holding a lock must not take the whole server down with it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    fn phase(&self) -> ServePhase {
        ServePhase::from_u8(self.phase.load(Ordering::SeqCst))
    }

    fn quiesced(&self) -> bool {
        lock(&self.queues).is_empty() && self.active.load(Ordering::SeqCst) == 0
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
    acceptor: Option<JoinHandle<()>>,
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
        listener
            .set_nonblocking(true)
            .map_err(|e| FaseError::worker(format!("set_nonblocking: {e}")))?;

        let shared = Arc::new(Shared {
            queues: Mutex::new(DrrQueues::new(config.caps)),
            wake: Condvar::new(),
            phase: AtomicU8::new(0),
            active: AtomicUsize::new(0),
            running: Mutex::new(Vec::new()),
            next_serial: AtomicUsize::new(0),
            config,
        });

        let mut workers = Vec::with_capacity(shared.config.workers.max(1));
        // fase-lint: allow(C-cancel) -- bounded spawn loop (one iteration per configured worker); worker_loop itself polls the drain phase
        for i in 0..shared.config.workers.max(1) {
            let worker_shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("fase-serve-worker-{i}"))
                .spawn(move || worker_loop(&worker_shared))
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
            acceptor: Some(acceptor),
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

    /// Drains (if not already draining) and blocks until every accepted
    /// request has been answered, then stops the workers and acceptor.
    pub fn join(mut self) {
        begin_drain(&self.shared);
        while !self.shared.quiesced() {
            std::thread::sleep(Duration::from_millis(POLL_MS));
        }
        self.shared
            .phase
            .store(ServePhase::Stopped as u8, Ordering::SeqCst);
        self.shared.wake.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

/// Flips the phase to draining (once) and arms the drain-deadline
/// watchdog that cancels whatever is still outstanding when it fires.
fn begin_drain(shared: &Arc<Shared>) {
    let flipped = shared
        .phase
        .compare_exchange(
            ServePhase::Accepting as u8,
            ServePhase::Draining as u8,
            Ordering::SeqCst,
            Ordering::SeqCst,
        )
        .is_ok();
    if !flipped {
        return;
    }
    shared.wake.notify_all();
    shared.config.recorder.count("serve.drains", 1);
    let watchdog = Arc::clone(shared);
    let deadline_ms = shared.config.drain_deadline_ms;
    let _ = std::thread::Builder::new()
        .name("fase-serve-drain".to_owned())
        .spawn(move || {
            // Sleep in slices so a fast drain releases the thread early.
            let mut waited = 0u64;
            while waited < deadline_ms && !watchdog.quiesced() {
                let step = POLL_MS.min(deadline_ms - waited);
                std::thread::sleep(Duration::from_millis(step));
                waited += step;
            }
            if watchdog.quiesced() {
                return;
            }
            // Deadline hit: cancel everything still queued or running.
            // Queued jobs stay queued — a worker pulls each one, sees
            // the fired token, and replies degraded, so every admitted
            // request is still answered.
            lock(&watchdog.queues).for_each(|job| job.token.cancel());
            for (_, token) in lock(&watchdog.running).iter() {
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
        if shared.phase() == ServePhase::Stopped {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let handler_shared = Arc::clone(shared);
                let _ = std::thread::Builder::new()
                    .name("fase-serve-conn".to_owned())
                    .spawn(move || handle_connection(stream, &handler_shared));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(POLL_MS));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(POLL_MS)),
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
    format!(
        "{{\"phase\":{},\"queued\":{},\"active\":{},\"workers\":{}}}",
        quote(shared.phase().as_str()),
        lock(&shared.queues).len(),
        shared.active.load(Ordering::SeqCst),
        shared.config.workers.max(1)
    )
}

/// The full `/v1/sweep` admission + wait path.
fn handle_sweep(body: &str, shared: &Arc<Shared>) -> Response {
    if shared.phase() != ServePhase::Accepting {
        return Response::json(
            503,
            error_body(
                "draining",
                "server is draining; not accepting new work",
                None,
            ),
        );
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
        let mut queues = lock(&shared.queues);
        // Re-check under the lock so no job is admitted after a drain
        // began (the watchdog iterates this queue exactly once).
        if shared.phase() != ServePhase::Accepting {
            return Response::json(
                503,
                error_body(
                    "draining",
                    "server is draining; not accepting new work",
                    None,
                ),
            );
        }
        let cost = job.request.cost();
        if let Err(rejection) = queues.admit(&tenant, cost, job) {
            recorder.count_labeled("serve.rejected", &tenant, 1);
            let retry_ms = rejection.retry_after_ms();
            let kind = match rejection.scope() {
                "tenant queue" => "tenant-queue-full",
                _ => "global-queue-full",
            };
            let message = FaseError::busy(rejection.scope(), retry_ms).to_string();
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

/// Worker thread: pull jobs in DRR order until the server stops (or the
/// drain queue runs dry), executing each inside a panic boundary.
fn worker_loop(shared: &Arc<Shared>) {
    // fase-lint: allow(C-cancel) -- next_job returns None once the server enters Draining/Stopped, bounding each wait to one 100 ms Condvar tick
    loop {
        let Some(job) = next_job(shared) else { return };
        let serial = shared.next_serial.fetch_add(1, Ordering::SeqCst) as u64;
        shared.active.fetch_add(1, Ordering::SeqCst);
        lock(&shared.running).push((serial, job.token.clone()));

        let response = execute_job(shared, &job);
        // The handler may have timed out and gone; that is its problem,
        // not the worker's.
        let _ = job.reply.try_send(response);

        lock(&shared.running).retain(|(s, _)| *s != serial);
        shared.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Blocks until a job is available; `None` means "worker should exit"
/// (server stopped, or draining with an empty queue).
fn next_job(shared: &Arc<Shared>) -> Option<QueuedJob> {
    let mut queues = lock(&shared.queues);
    loop {
        if let Some(job) = queues.pop() {
            return Some(job);
        }
        match shared.phase() {
            ServePhase::Accepting => {}
            ServePhase::Draining | ServePhase::Stopped => return None,
        }
        let (guard, _) = shared
            .wake
            .wait_timeout(queues, Duration::from_millis(100))
            .unwrap_or_else(PoisonError::into_inner);
        queues = guard;
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
    lock(&shared.queues).observe_service_ms(elapsed_ns / 1_000_000);
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

/// Best-effort panic payload extraction.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_owned()
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
    let system_id = request.system_id();
    let seed = request.seed;

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
            let base = request
                .fault_seed
                .unwrap_or(seed.wrapping_mul(0x9E37).wrapping_add(1));
            let fault_seed = base.wrapping_add(u64::from(attempt));
            options.campaign.fault_plan = Some(
                FaultPlan::new(fault_seed).with_rates(FaultRates::uniform(request.fault_rate)),
            );
        }
        options.cache_dir = shared.config.cache_dir.clone();

        match fase_specan::run_sweep(
            &config,
            &system_id,
            pair,
            |_| make(seed),
            seed.wrapping_add(1),
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
                if attempt < shared.config.max_retries && !job.token.is_cancelled() {
                    recorder.count_labeled("serve.retries", &request.tenant, 1);
                    backoff(attempt, &job.token);
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

/// Exponential backoff (50 ms doubling, capped at 800 ms), polled in
/// slices so a firing cancel token cuts the wait short.
fn backoff(attempt: u32, token: &CancelToken) {
    let total = 50u64.saturating_mul(1 << attempt.min(4)).min(800);
    let mut slept = 0u64;
    while slept < total && !token.is_cancelled() {
        let step = POLL_MS.min(total - slept);
        std::thread::sleep(Duration::from_millis(step));
        slept += step;
    }
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
        FaseError::Busy { .. } => "busy",
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
    fn phase_names_are_stable() {
        assert_eq!(ServePhase::Accepting.as_str(), "accepting");
        assert_eq!(ServePhase::Draining.as_str(), "draining");
        assert_eq!(ServePhase::Stopped.as_str(), "stopped");
        assert_eq!(ServePhase::from_u8(0), ServePhase::Accepting);
        assert_eq!(ServePhase::from_u8(1), ServePhase::Draining);
        assert_eq!(ServePhase::from_u8(9), ServePhase::Stopped);
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
        assert_eq!(error_kind(&FaseError::busy("q", 1)), "busy");
    }
}
