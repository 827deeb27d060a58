//! Aggregation state shared by every handle to one recorder.
//!
//! A [`Sink`] owns the sorted maps behind counters, histograms and span
//! statistics. All mutation goes through a single mutex; the
//! hot "is anything listening?" check is a lone relaxed atomic load so
//! a disabled recorder costs next to nothing on instrumented paths.

use crate::snapshot::{HistogramSnapshot, Snapshot, SpanStat};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Number of power-of-two histogram buckets (`b00` covers `[1, 2)` ns).
const BUCKETS: usize = 64;

#[derive(Debug, Default)]
struct State {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    spans: BTreeMap<String, SpanAgg>,
}

#[derive(Debug)]
struct Histogram {
    count: u64,
    sum_ns: u64,
    buckets: [u64; BUCKETS],
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            count: 0,
            sum_ns: 0,
            buckets: [0; BUCKETS],
        }
    }

    fn observe(&mut self, ns: u64) {
        self.count = self.count.saturating_add(1);
        self.sum_ns = self.sum_ns.saturating_add(ns);
        // Bucket i covers [2^i, 2^(i+1)) ns; zero lands in bucket 0.
        let idx = (63 - ns.max(1).leading_zeros()) as usize;
        if let Some(slot) = self.buckets.get_mut(idx) {
            *slot = slot.saturating_add(1);
        }
    }

    fn export(&self) -> HistogramSnapshot {
        let mut buckets = BTreeMap::new();
        for (i, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                buckets.insert(format!("b{i:02}"), n);
            }
        }
        HistogramSnapshot {
            count: self.count,
            sum_ns: self.sum_ns,
            buckets,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct SpanAgg {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

/// Shared metrics store behind a [`Recorder`](crate::Recorder) handle.
#[derive(Debug)]
pub(crate) struct Sink {
    enabled: AtomicBool,
    state: Mutex<State>,
}

impl Sink {
    pub(crate) fn new(enabled: bool) -> Sink {
        Sink {
            enabled: AtomicBool::new(enabled),
            state: Mutex::new(State::default()),
        }
    }

    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub(crate) fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// A poisoned mutex only means another thread panicked mid-update;
    /// metrics are advisory, so recover the data rather than propagate.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    // Per increment, under the mutex: allocate a key only on first insert.
    pub(crate) fn add_count(&self, name: &str, by: u64) {
        let mut state = self.lock();
        if let Some(slot) = state.counters.get_mut(name) {
            *slot = slot.saturating_add(by);
        } else {
            state.counters.insert(name.to_owned(), by);
        }
    }

    pub(crate) fn observe_ns(&self, name: &str, ns: u64) {
        let mut state = self.lock();
        if !state.histograms.contains_key(name) {
            state.histograms.insert(name.to_owned(), Histogram::new());
        }
        if let Some(hist) = state.histograms.get_mut(name) {
            hist.observe(ns);
        }
    }

    pub(crate) fn record_span(&self, path: String, ns: u64) {
        let mut state = self.lock();
        match state.spans.entry(path) {
            std::collections::btree_map::Entry::Vacant(slot) => {
                slot.insert(SpanAgg {
                    count: 1,
                    total_ns: ns,
                    min_ns: ns,
                    max_ns: ns,
                });
            }
            std::collections::btree_map::Entry::Occupied(mut slot) => {
                let agg = slot.get_mut();
                agg.count = agg.count.saturating_add(1);
                agg.total_ns = agg.total_ns.saturating_add(ns);
                agg.min_ns = agg.min_ns.min(ns);
                agg.max_ns = agg.max_ns.max(ns);
            }
        }
    }

    pub(crate) fn reset(&self) {
        let mut state = self.lock();
        *state = State::default();
    }

    pub(crate) fn snapshot(&self) -> Snapshot {
        let state = self.lock();
        Snapshot {
            counters: state.counters.clone(),
            histograms: state
                .histograms
                .iter()
                .map(|(name, h)| (name.clone(), h.export()))
                .collect(),
            spans: state
                .spans
                .iter()
                .map(|(path, agg)| {
                    (
                        path.clone(),
                        SpanStat {
                            count: agg.count,
                            total_ns: agg.total_ns,
                            min_ns: agg.min_ns,
                            max_ns: agg.max_ns,
                        },
                    )
                })
                .collect(),
        }
    }
}
