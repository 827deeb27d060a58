//! # fase-serve — a fault-tolerant multi-tenant detection service
//!
//! The sweep scheduler (`fase-specan`) runs one campaign for one caller.
//! This crate puts a *service* in front of it: a dependency-free
//! HTTP/1.1 + JSON server that accepts concurrent sweep requests from
//! several tenants and multiplexes them onto a bounded worker pool and a
//! shared capture cache. Five robustness concerns shape the design:
//!
//! * **Admission control** — per-tenant and global queue bounds; work
//!   beyond either bound is rejected immediately with a structured `429`
//!   carrying a `Retry-After` hint ([`queue`]).
//! * **Fair scheduling** — deficit-round-robin across tenants, so one
//!   tenant flooding its queue cannot starve the others ([`queue`]).
//! * **Deadlines and budgets** — each request carries an optional
//!   wall-clock deadline and capture budget, enforced cooperatively at
//!   band granularity through [`fase_specan::CancelToken`]; an expired
//!   request returns the *partial* report it earned, marked degraded.
//! * **Fault containment** — a capture fault or worker panic fails only
//!   its own request, after the runner's per-capture retries and with
//!   no re-run of the sweep; the pool and every other tenant keep going
//!   ([`server`]). A request runs through [`SweepRequest::run`], as
//!   `fase-cli sweep` does, so both answer the same parameters alike.
//! * **Graceful drain** — `POST /v1/drain` stops admission, finishes the
//!   work already accepted under a drain deadline, and leaves every
//!   finished band in the shared capture cache, so a restarted server
//!   resumes an interrupted sweep bit-identically
//!   ([`server::Server::drain`]).
//!
//! The HTTP layer ([`http`]) is deliberately minimal — request line,
//! headers, `Content-Length` bodies, bounded sizes, socket timeouts —
//! because the interesting machinery is behind it, not in it. A
//! deterministic load generator ([`load`]) drives the server for the
//! robustness demo and the latency benchmark.

pub mod http;
pub mod load;
pub mod protocol;
pub mod queue;
pub mod server;

pub use load::{run_load, LoadReport, LoadSpec};
pub use protocol::SweepRequest;
pub use queue::{AdmissionError, DrrQueues, QueueCaps};
pub use server::{ServeConfig, ServePhase, Server};
