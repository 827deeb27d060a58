//! RAII timing spans with a thread-local path stack.
//!
//! Each thread keeps its own stack of open span names; a guard's path is
//! the stack joined with `/` at entry time, so nested guards on one
//! thread produce `campaign/capture/synth`-style paths while a worker
//! thread's outermost span becomes its own root. Guards from inactive
//! recorders skip the stack entirely, so they neither cost time nor
//! perturb the nesting of an active recorder elsewhere.

use crate::clock;
use crate::sink::Sink;
use std::cell::RefCell;
use std::sync::Arc;

thread_local! {
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard for one timing span; records its duration when dropped.
///
/// Created via [`Recorder::span`](crate::Recorder::span). Bind it to a
/// named `_guard` so it lives for the scope being timed —
/// `let _ = recorder.span(...)` drops immediately.
#[derive(Debug)]
#[must_use = "a span records when dropped; bind it (`let _guard = ...`) so it covers the scope"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

#[derive(Debug)]
struct ActiveSpan {
    sink: Arc<Sink>,
    path: String,
    start_ns: u64,
}

impl SpanGuard {
    pub(crate) fn enter(sink: Option<&Arc<Sink>>, name: &'static str) -> SpanGuard {
        let Some(sink) = sink.filter(|s| s.is_enabled()) else {
            return SpanGuard { active: None };
        };
        let path = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            stack.push(name);
            stack.join("/")
        });
        SpanGuard {
            active: Some(ActiveSpan {
                sink: Arc::clone(sink),
                path,
                start_ns: clock::now_ns(),
            }),
        }
    }

    /// Whether this guard will record a duration on drop.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.active.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(span) = self.active.take() else {
            return;
        };
        let elapsed = clock::now_ns().saturating_sub(span.start_ns);
        STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
        span.sink.record_span(span.path, elapsed);
    }
}
