//! Bounded multi-tenant queues with deficit-round-robin scheduling.
//!
//! Admission control and fairness live here, decoupled from both HTTP
//! and the sweep runner so they can be tested exhaustively in
//! milliseconds. Two limits guard the server's memory and latency: a
//! per-tenant queue bound (one tenant cannot buffer unbounded work) and
//! a global bound (the sum over tenants stays bounded too). Work beyond
//! either limit is rejected *immediately* with a retry hint — the queue
//! never blocks an admission.
//!
//! Dequeue order is deficit round-robin (DRR): tenants are visited in a
//! fixed cyclic order and each visit earns a tenant `quantum` units of
//! deficit; a tenant's head job is released once its deficit covers the
//! job's cost (here: bands of sweep work). Over time every tenant with
//! queued work receives the same share of band-capacity regardless of
//! how many requests it floods into its queue.

use fase_dsp::rng::mix_seed;
use std::collections::{BTreeMap, VecDeque};

/// Queue capacity limits and the DRR quantum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueCaps {
    /// Most jobs one tenant may have queued (admitted but not started).
    pub per_tenant: usize,
    /// Most jobs queued across all tenants.
    pub global: usize,
    /// Deficit earned per DRR visit, in cost units (bands). Values below
    /// 1 are treated as 1.
    pub quantum: u64,
}

impl Default for QueueCaps {
    fn default() -> QueueCaps {
        QueueCaps {
            per_tenant: 8,
            global: 32,
            quantum: 2,
        }
    }
}

/// Why an admission was refused. Carries the retry hint the HTTP layer
/// turns into `Retry-After`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The tenant's own queue is at capacity.
    TenantFull {
        /// Suggested wait before retrying, milliseconds.
        retry_after_ms: u64,
    },
    /// The global queue is at capacity.
    GlobalFull {
        /// Suggested wait before retrying, milliseconds.
        retry_after_ms: u64,
    },
}

impl AdmissionError {
    /// The capacity limit that fired, as a stable label.
    pub fn scope(&self) -> &'static str {
        match self {
            AdmissionError::TenantFull { .. } => "tenant queue",
            AdmissionError::GlobalFull { .. } => "global queue",
        }
    }

    /// The retry hint, milliseconds.
    pub fn retry_after_ms(&self) -> u64 {
        match self {
            AdmissionError::TenantFull { retry_after_ms }
            | AdmissionError::GlobalFull { retry_after_ms } => *retry_after_ms,
        }
    }
}

/// One tenant's pending work.
#[derive(Debug)]
struct TenantQueue<T> {
    /// Queued `(cost, payload)` pairs, FIFO within the tenant.
    jobs: VecDeque<(u64, T)>,
    /// DRR deficit accumulated so far.
    deficit: u64,
}

/// Bounded per-tenant queues drained in deficit-round-robin order.
///
/// Deterministic by construction: admission order and tenant names fully
/// determine dequeue order (tenants are visited in lexicographic cycle,
/// ties broken by name), so scheduling tests are exact, not statistical.
#[derive(Debug)]
pub struct DrrQueues<T> {
    tenants: BTreeMap<String, TenantQueue<T>>,
    /// The tenant served last; the next rotation starts just after it.
    last: Option<String>,
    total: usize,
    caps: QueueCaps,
    /// EWMA of observed per-job service time, milliseconds; `None` until
    /// the first completed job reports in.
    service_ewma_ms: Option<u64>,
    /// Rejections issued so far — the jitter stream for retry hints.
    rejections: u64,
}

/// Assumed per-job service time before any job has completed, ms. Sweeps
/// through the serve path take on the order of a quarter second warm.
const DEFAULT_SERVICE_MS: u64 = 250;

/// Service times beyond this are clamped before entering the EWMA so one
/// pathological deadline-length job cannot poison hints for minutes.
const MAX_OBSERVED_SERVICE_MS: u64 = 60_000;

/// Retry hints never leave this window: long enough that a retry has a
/// chance, short enough that clients poll a loaded server at all.
const MIN_HINT_MS: u64 = 100;
const MAX_HINT_MS: u64 = 30_000;

impl<T> DrrQueues<T> {
    /// An empty queue set with the given capacity limits.
    pub fn new(caps: QueueCaps) -> DrrQueues<T> {
        DrrQueues {
            tenants: BTreeMap::new(),
            last: None,
            total: 0,
            caps,
            service_ewma_ms: None,
            rejections: 0,
        }
    }

    /// Feeds one completed job's measured wall time into the service-cost
    /// estimate (EWMA, α = 1/4). The workers call this after every job so
    /// retry hints track what requests *actually* cost right now rather
    /// than a hardcoded constant.
    pub fn observe_service_ms(&mut self, ms: u64) {
        let ms = ms.clamp(1, MAX_OBSERVED_SERVICE_MS);
        self.service_ewma_ms = Some(match self.service_ewma_ms {
            Some(prev) => (prev.saturating_mul(3).saturating_add(ms)) / 4,
            None => ms,
        });
    }

    /// The current per-job service-time estimate, milliseconds
    /// ([`DEFAULT_SERVICE_MS`] until a job has completed).
    pub fn estimated_service_ms(&self) -> u64 {
        self.service_ewma_ms.unwrap_or(DEFAULT_SERVICE_MS)
    }

    /// Retry hint for a rejection seen at queue depth `queued`: the
    /// expected time for the backlog to shrink (`queued × estimated
    /// per-job cost`) plus deterministic ±25% jitter drawn from the
    /// rejection counter, clamped to `[`[`MIN_HINT_MS`]`, `[`MAX_HINT_MS`]`]`.
    ///
    /// The jitter is the point: a fixed hint tells every rejected client
    /// to come back at the same instant, so a full queue stays full in
    /// lock-step. Spreading hints over a half-cost window de-synchronizes
    /// the herd without any client-side randomness.
    fn retry_hint_ms(&mut self, queued: usize) -> u64 {
        self.rejections = self.rejections.wrapping_add(1);
        let base = (queued.max(1) as u64).saturating_mul(self.estimated_service_ms());
        let span = (base / 2).max(2);
        let jitter = mix_seed(self.rejections, queued as u64) % span;
        base.saturating_sub(span / 2)
            .saturating_add(jitter)
            .clamp(MIN_HINT_MS, MAX_HINT_MS)
    }

    /// Jobs queued across all tenants.
    pub fn len(&self) -> usize {
        self.total
    }

    /// True when no tenant has queued work.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Jobs queued for one tenant.
    pub fn queued_for(&self, tenant: &str) -> usize {
        self.tenants.get(tenant).map_or(0, |q| q.jobs.len())
    }

    /// Admits `payload` to `tenant`'s queue, or rejects it with a retry
    /// hint when either bound is hit.
    ///
    /// # Errors
    ///
    /// * [`AdmissionError::GlobalFull`] — the sum over tenants is at
    ///   [`QueueCaps::global`].
    /// * [`AdmissionError::TenantFull`] — this tenant is at
    ///   [`QueueCaps::per_tenant`].
    pub fn admit(&mut self, tenant: &str, cost: u64, payload: T) -> Result<(), AdmissionError> {
        if self.total >= self.caps.global {
            let retry_after_ms = self.retry_hint_ms(self.total);
            return Err(AdmissionError::GlobalFull { retry_after_ms });
        }
        let queued = self.queued_for(tenant);
        if queued >= self.caps.per_tenant {
            let retry_after_ms = self.retry_hint_ms(queued);
            return Err(AdmissionError::TenantFull { retry_after_ms });
        }
        self.tenants
            .entry(tenant.to_owned())
            .or_insert_with(|| TenantQueue {
                jobs: VecDeque::new(),
                deficit: 0,
            })
            .jobs
            .push_back((cost.max(1), payload));
        self.total += 1;
        Ok(())
    }

    /// The cyclic visit order starting just after the last-served tenant.
    fn rotation(&self) -> Vec<String> {
        let keys: Vec<String> = self.tenants.keys().cloned().collect();
        let start = match &self.last {
            Some(last) => keys.iter().position(|k| k > last).unwrap_or(0),
            None => 0,
        };
        let mut order = Vec::with_capacity(keys.len());
        order.extend_from_slice(keys.get(start..).unwrap_or_default());
        order.extend_from_slice(keys.get(..start).unwrap_or_default());
        order
    }

    /// Releases the next job under DRR, or `None` when nothing is
    /// queued. Each full rotation grows every blocked tenant's deficit
    /// by the quantum, so the loop terminates after at most
    /// `ceil(max_cost / quantum)` rotations.
    pub fn pop(&mut self) -> Option<T> {
        if self.total == 0 {
            return None;
        }
        let quantum = self.caps.quantum.max(1);
        loop {
            for name in self.rotation() {
                let Some(queue) = self.tenants.get_mut(&name) else {
                    continue;
                };
                let Some(cost) = queue.jobs.front().map(|(c, _)| *c) else {
                    continue;
                };
                if queue.deficit < cost {
                    queue.deficit = queue.deficit.saturating_add(quantum);
                    continue;
                }
                queue.deficit -= cost;
                let Some((_, payload)) = queue.jobs.pop_front() else {
                    continue;
                };
                self.total -= 1;
                if queue.jobs.is_empty() {
                    // An idle tenant's deficit does not accumulate
                    // (standard DRR), so a returning tenant starts even.
                    self.tenants.remove(&name);
                }
                self.last = Some(name);
                return Some(payload);
            }
        }
    }

    /// Visits every queued job without dequeuing it (tenant order, FIFO
    /// within each) — how drain reaches the cancel tokens of work that
    /// has been admitted but not started.
    pub fn for_each(&self, mut f: impl FnMut(&T)) {
        for queue in self.tenants.values() {
            for (_, payload) in &queue.jobs {
                f(payload);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn caps(per_tenant: usize, global: usize, quantum: u64) -> QueueCaps {
        QueueCaps {
            per_tenant,
            global,
            quantum,
        }
    }

    #[test]
    fn fifo_within_a_single_tenant() {
        let mut q = DrrQueues::new(caps(8, 32, 2));
        for i in 0..4 {
            q.admit("a", 1, i).unwrap();
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
        assert!(q.is_empty());
    }

    #[test]
    fn drr_interleaves_a_flood_with_a_trickle() {
        let mut q = DrrQueues::new(caps(16, 64, 1));
        // Tenant "flood" queues 8 unit jobs before "trickle" queues 2.
        for i in 0..8 {
            q.admit("flood", 1, format!("f{i}")).unwrap();
        }
        q.admit("trickle", 1, "t0".to_owned()).unwrap();
        q.admit("trickle", 1, "t1".to_owned()).unwrap();
        let order: Vec<String> = std::iter::from_fn(|| q.pop()).collect();
        // Both of trickle's jobs run within the first four slots — the
        // flood cannot push them to the back.
        let t1_pos = order.iter().position(|j| j == "t1").unwrap();
        assert!(t1_pos < 4, "{order:?}");
        assert_eq!(order.len(), 10);
    }

    #[test]
    fn expensive_jobs_wait_for_deficit() {
        let mut q = DrrQueues::new(caps(8, 32, 1));
        q.admit("big", 3, "expensive").unwrap();
        q.admit("small", 1, "cheap-0").unwrap();
        q.admit("small", 1, "cheap-1").unwrap();
        // quantum 1: "big" needs three rotations of credit before its
        // 3-cost job releases, so the first cheap job beats it out the
        // gate; by then "big" has earned its slot and "small" waits one
        // turn — cost-fair, not request-count-fair.
        assert_eq!(q.pop(), Some("cheap-0"));
        assert_eq!(q.pop(), Some("expensive"));
        assert_eq!(q.pop(), Some("cheap-1"));
        assert_eq!(q.pop(), None);
    }

    /// The jittered hint must land inside `base ± span/2` (pre-clamp).
    fn assert_hint_in_window(hint: u64, queued: u64, service_ms: u64) {
        let base = queued.max(1) * service_ms;
        let span = (base / 2).max(2);
        let lo = base.saturating_sub(span / 2).clamp(100, 30_000);
        let hi = (base + span).clamp(100, 30_000);
        assert!(
            (lo..=hi).contains(&hint),
            "hint {hint} outside [{lo}, {hi}] for depth {queued} × {service_ms} ms"
        );
    }

    #[test]
    fn tenant_cap_rejects_with_depth_scaled_hint() {
        let mut q = DrrQueues::new(caps(2, 32, 2));
        q.admit("a", 1, 0).unwrap();
        q.admit("a", 1, 1).unwrap();
        let err = q.admit("a", 1, 2).unwrap_err();
        assert_eq!(err.scope(), "tenant queue");
        // No job has finished yet: the hint uses the default service cost
        // and the tenant's depth of 2.
        assert_hint_in_window(err.retry_after_ms(), 2, 250);
        // Other tenants are unaffected.
        q.admit("b", 1, 0).unwrap();
    }

    #[test]
    fn global_cap_rejects_everyone() {
        let mut q = DrrQueues::new(caps(8, 3, 2));
        q.admit("a", 1, 0).unwrap();
        q.admit("b", 1, 0).unwrap();
        q.admit("c", 1, 0).unwrap();
        let err = q.admit("d", 1, 0).unwrap_err();
        assert_eq!(err.scope(), "global queue");
        assert_hint_in_window(err.retry_after_ms(), 3, 250);
        // Draining one job reopens admission.
        let _ = q.pop().unwrap();
        q.admit("d", 1, 0).unwrap();
    }

    #[test]
    fn retry_hint_tracks_measured_service_cost() {
        // A full queue whose jobs measure ~4 s each must hint a much
        // longer wait than one whose jobs take the default 250 ms.
        let mut q = DrrQueues::new(caps(2, 32, 2));
        for _ in 0..8 {
            q.observe_service_ms(4_000);
        }
        assert_eq!(q.estimated_service_ms(), 4_000);
        q.admit("a", 1, 0).unwrap();
        q.admit("a", 1, 1).unwrap();
        let slow = q.admit("a", 1, 2).unwrap_err().retry_after_ms();
        assert_hint_in_window(slow, 2, 4_000);
        assert!(slow >= 6_000, "2 × 4 s backlog hinted only {slow} ms");

        // Fast jobs bring the EWMA — and with it the hints — back down.
        for _ in 0..32 {
            q.observe_service_ms(100);
        }
        let fast = q.admit("a", 1, 3).unwrap_err().retry_after_ms();
        assert!(fast < slow / 4, "hint did not follow the EWMA down: {fast}");
    }

    #[test]
    fn retry_hints_are_jittered_not_synchronized() {
        // Two clients rejected back-to-back at the same depth must not be
        // told to come back at the same instant.
        let mut q = DrrQueues::new(caps(1, 32, 2));
        q.admit("a", 1, 0).unwrap();
        let hints: Vec<u64> = (0..4)
            .map(|i| q.admit("a", 1, i).unwrap_err().retry_after_ms())
            .collect();
        for &h in &hints {
            assert_hint_in_window(h, 1, 250);
        }
        assert!(
            hints.windows(2).any(|w| w[0] != w[1]),
            "all hints identical: {hints:?}"
        );
    }

    #[test]
    fn retry_hint_is_clamped() {
        let mut q: DrrQueues<i32> = DrrQueues::new(caps(8, 32, 2));
        // Tiny estimate, depth 0: the floor holds.
        q.observe_service_ms(0); // clamped up to 1 ms before the EWMA
        assert_eq!(q.estimated_service_ms(), 1);
        assert!(q.retry_hint_ms(0) >= 100);
        // Huge backlog × huge estimate: the ceiling holds.
        q.observe_service_ms(u64::MAX);
        assert!(q.estimated_service_ms() <= 60_000);
        assert_eq!(q.retry_hint_ms(1_000_000), 30_000);
    }
}
