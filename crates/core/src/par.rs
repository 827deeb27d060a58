//! The workspace's one thread policy. Compute threads start only in
//! [`scoped`], and every stage sizes itself from one budget,
//! [`worker_threads`], under two rules:
//!
//! 1. **The caller works**: [`par_map`] runs on its calling thread plus
//!    `worker_threads(None) − 1` helpers.
//! 2. **No extra threads beside a live pool**: a thread that is part of
//!    a pool or map with helpers, as its lead or as one of the helpers,
//!    runs [`par_map`] inline, because the pool already holds the cores.
//!    A sweep's capture pool leader analyses each band this way while its
//!    helpers capture the next bands, and each thread of a warm sweep's
//!    map over its cached bands analyses the bands it claims.
//!
//! Results land in per-item slots, so no thread count changes an output.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

thread_local! {
    /// Set while this thread leads or helps a pool that has helpers.
    static POOLED: Cell<bool> = const { Cell::new(false) };
}

/// Resolves a worker count: `requested` if given, else `FASE_THREADS` if
/// set to a number, else the machine's available parallelism; never 0.
pub fn worker_threads(requested: Option<usize>) -> usize {
    // fase-lint: allow(D-env) -- FASE_THREADS selects the worker count only; harmonic sweeps and campaigns are bit-identical for any value (parallel-vs-sequential property tests, figure worker-count identity)
    let env = || std::env::var("FASE_THREADS").ok()?.parse().ok();
    // fase-lint: allow(D-thread) -- the machine's parallelism affects scheduling, not results; per-harmonic scores and capture-task outputs reduce in a fixed order
    let machine = || std::thread::available_parallelism().map_or(1, usize::from);
    requested.or_else(env).unwrap_or_else(machine).max(1)
}

/// The printable message of a panic payload.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    let text = payload.downcast_ref::<&str>().copied();
    text.or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("unknown panic payload")
        .to_owned()
}

/// Runs `lead` on the calling thread while `helpers` scoped threads each
/// run `help`, and returns what `lead` returns once every helper has
/// exited. With helpers, `lead` and every `help` run [`par_map`] inline.
/// A panic in `lead` or a helper resumes on the calling thread with its
/// own payload.
pub fn scoped<T>(helpers: usize, help: impl Fn() + Sync, lead: impl FnOnce() -> T) -> T {
    let outer = POOLED.replace(POOLED.get() || helpers > 0);
    // A helper is a fresh thread, so its flag needs no restoring.
    let pooled_help = || {
        POOLED.set(true);
        help();
    };
    let out = catch_unwind(AssertUnwindSafe(|| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..helpers).map(|_| scope.spawn(pooled_help)).collect();
            let out = lead();
            // Joined here, not by the scope, so a panic keeps its payload.
            for handle in handles {
                if let Err(payload) = handle.join() {
                    resume_unwind(payload);
                }
            }
            out
        })
    }));
    POOLED.set(outer);
    out.unwrap_or_else(|payload| resume_unwind(payload))
}

/// Maps `f` over `items` in item order: inline on a thread that leads or
/// helps a pool with helpers, else on the calling thread plus
/// `worker_threads(None) − 1` helpers.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let threads = if POOLED.get() {
        1
    } else {
        worker_threads(None)
    };
    map_on(threads, items, f)
}

/// Maps `f` over `items` in item order on the calling thread plus
/// `threads − 1` helpers (at most one thread per item), which claim the
/// next index from an atomic cursor.
pub fn map_on<T: Sync, R: Send>(threads: usize, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let helpers = threads.min(items.len()).saturating_sub(1);
    if helpers == 0 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let (Some(item), Some(slot)) = (items.get(i), slots.get(i)) else {
            break;
        };
        let result = f(item);
        *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
    };
    scoped(helpers, work, work);
    // `scoped` returned, so every item was claimed and its slot written.
    let slots = slots.into_iter().map(Mutex::into_inner);
    slots
        .filter_map(|slot| slot.unwrap_or_else(PoisonError::into_inner))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_keeps_item_order() {
        let items: Vec<u64> = (0..97).collect();
        let squares = par_map(&items, |&x| x * x);
        assert_eq!(squares, items.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_beside_a_live_pool_runs_inline() {
        let caller = std::thread::current().id();
        let items: Vec<u32> = (0..16).collect();
        let leader_ids = scoped(
            1,
            || {},
            || par_map(&items, |_| std::thread::current().id()),
        );
        assert!(leader_ids.iter().all(|&id| id == caller));
        assert!(!POOLED.get(), "the flag is restored once the pool ends");
    }

    #[test]
    fn par_map_inside_a_map_runs_on_the_thread_that_claimed_the_item() {
        // Two outer items on two threads: the barrier holds each thread
        // until the other has claimed an item, so the lead and the helper
        // each map one. Both must be marked pooled, and each nested map
        // must run wholly on its thread.
        let both_claimed = std::sync::Barrier::new(2);
        let inner: Vec<u32> = (0..8).collect();
        let outer = map_on(2, &[0u32, 1], |_| {
            both_claimed.wait();
            let me = std::thread::current().id();
            let ids = par_map(&inner, |_| std::thread::current().id());
            (me, POOLED.get(), ids.iter().all(|&id| id == me))
        });
        assert_ne!(
            outer[0].0, outer[1].0,
            "the lead and the helper each map one item"
        );
        assert!(
            outer.iter().all(|&(_, pooled, inline)| pooled && inline),
            "{outer:?}"
        );
        assert!(!POOLED.get(), "the flag is restored once the map ends");
    }

    #[test]
    fn a_pool_without_helpers_leaves_par_map_free() {
        scoped(0, || {}, || assert!(!POOLED.get()));
    }

    #[test]
    fn a_helper_panic_resumes_on_the_caller_with_its_payload() {
        let payload = catch_unwind(|| scoped(1, || panic!("helper failed"), || 7)).unwrap_err();
        assert_eq!(panic_message(payload.as_ref()), "helper failed");
        assert!(!POOLED.get());
    }

    #[test]
    fn a_lead_panic_restores_the_flag() {
        let payload = catch_unwind(|| scoped(1, || {}, || panic!("lead failed"))).unwrap_err();
        assert_eq!(panic_message(payload.as_ref()), "lead failed");
        assert!(!POOLED.get());
    }

    #[test]
    fn panic_message_reads_str_and_string_payloads() {
        assert_eq!(panic_message(&"static"), "static");
        assert_eq!(panic_message(&String::from("owned")), "owned");
        assert_eq!(panic_message(&42u8), "unknown panic payload");
    }
}
