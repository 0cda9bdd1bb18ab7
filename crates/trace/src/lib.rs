//! rocks-trace: deterministic spans and typed metrics for the whole
//! workspace.
//!
//! The paper's cluster only stays manageable because every management
//! action is observable and repeatable; this crate gives the
//! reproduction the same property. Three pieces:
//!
//! - **Spans** ([`Tracer::span`]): hierarchical enter/exit pairs with
//!   RAII guards. Timestamps come from a *virtual* clock — either the
//!   simulator's µs clock (fed via [`Tracer::set_time`]) or a logical
//!   auto-incrementing tick — never wall clock, so a trace is a pure
//!   function of the seed.
//! - **Metrics** ([`metrics::Registry`]): counters, gauges, and
//!   fixed-bucket histograms shared by handle. Subsystem `Stats`
//!   structs are thin views over registry handles, so every number has
//!   exactly one source of truth.
//! - **Sinks**: a bounded ring buffer ([`Tracer::ring`] /
//!   [`Tracer::ring_sim`]), a discard-everything sink
//!   ([`Tracer::noop`]) for overhead measurement, and the disabled
//!   tracer ([`Tracer::disabled`]) whose every operation inlines to an
//!   early return on a `None` — the zero-cost-when-off configuration.

mod metrics;
mod sink;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Registry, Snapshot};
pub use sink::TraceDump;

use sink::Ring;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What happened, inside a [`TraceEvent`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened.
    Enter {
        /// This span's id (unique per tracer).
        span: u64,
        /// The enclosing span on the same thread, if any.
        parent: Option<u64>,
        /// Static span name (taxonomy in DESIGN.md).
        name: &'static str,
    },
    /// A span closed.
    Exit {
        /// The span that closed.
        span: u64,
        /// Its name, repeated for grep-ability.
        name: &'static str,
    },
    /// A point event with an integer payload (e.g. a node index).
    Mark {
        /// Static event name.
        name: &'static str,
        /// Integer payload.
        value: u64,
    },
}

/// One captured event with its virtual timestamp.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time: simulator µs under [`Tracer::ring_sim`], logical
    /// ticks under [`Tracer::ring`].
    pub at: u64,
    /// The event itself.
    pub kind: EventKind,
}

#[derive(Debug)]
enum Sink {
    Noop,
    Ring(Mutex<Ring>),
}

#[derive(Debug)]
struct TracerInner {
    sink: Sink,
    /// Virtual clock. Under logical mode every emitted event ticks it;
    /// under sim mode the instrumented code drives it via `set_time`.
    clock: AtomicU64,
    auto_tick: bool,
    /// False for the no-op sink: events are discarded anyway, so the
    /// event path (clock stamping, span stack, ring push) is skipped
    /// entirely and only the metrics registry stays live.
    record: bool,
    next_span: AtomicU64,
    registry: Registry,
}

/// Handle to one telemetry pipeline. Cloning shares the pipeline.
///
/// `Tracer::disabled()` is the default everywhere: its `inner` is
/// `None`, so `span`/`mark`/`set_time` inline to a single branch and
/// the compiler deletes the rest — telemetry off costs nothing.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

thread_local! {
    /// Per-thread span stack: (tracer identity, span id). Keyed by the
    /// tracer's `Arc` address so independent tracers on one thread
    /// don't see each other's parents.
    static SPAN_STACK: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    /// The zero-cost-off tracer: every operation is an inlined early
    /// return.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// Enabled but discarding: events are stamped and dropped, metrics
    /// still accumulate: the enabled pipeline's overhead without the
    /// cost of storage.
    pub fn noop() -> Tracer {
        Tracer::build(Sink::Noop, false)
    }

    /// Ring-buffer collector with a *logical* clock: each emitted event
    /// gets the next tick. For code with no simulation clock
    /// (kickstart generation, dist builds, SQL).
    pub fn ring(cap: usize) -> Tracer {
        Tracer::build(Sink::Ring(Mutex::new(Ring::new(cap))), true)
    }

    /// Ring-buffer collector with a *virtual-time* clock: timestamps
    /// are whatever the simulator last fed via [`Tracer::set_time`]
    /// (µs). For netsim-driven scenarios.
    pub fn ring_sim(cap: usize) -> Tracer {
        Tracer::build(Sink::Ring(Mutex::new(Ring::new(cap))), false)
    }

    fn build(sink: Sink, auto_tick: bool) -> Tracer {
        let record = !matches!(sink, Sink::Noop);
        Tracer {
            inner: Some(Arc::new(TracerInner {
                sink,
                clock: AtomicU64::new(0),
                auto_tick,
                record,
                next_span: AtomicU64::new(1),
                registry: Registry::new(),
            })),
        }
    }

    /// Whether any pipeline is attached.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether events (spans/marks/timestamps) are actually captured —
    /// false for the disabled tracer *and* the no-op sink. Hot loops can
    /// cache this to skip event bookkeeping entirely when nothing will
    /// be recorded; metric counters stay live regardless.
    #[inline]
    pub fn records_events(&self) -> bool {
        self.inner.as_deref().is_some_and(|i| i.record)
    }

    /// The tracer's metrics registry, if enabled.
    pub fn registry(&self) -> Option<&Registry> {
        self.inner.as_deref().map(|i| &i.registry)
    }

    /// Advance the virtual clock to `t` (simulation µs). No-op when
    /// disabled or under a logical clock.
    #[inline]
    pub fn set_time(&self, t: u64) {
        if let Some(inner) = &self.inner {
            if !inner.auto_tick && inner.record {
                inner.clock.store(t, Ordering::Relaxed);
            }
        }
    }

    fn identity(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| Arc::as_ptr(i) as usize)
    }

    #[inline]
    fn emit(&self, kind: EventKind) {
        let Some(inner) = &self.inner else { return };
        let at = if inner.auto_tick {
            inner.clock.fetch_add(1, Ordering::Relaxed) + 1
        } else {
            inner.clock.load(Ordering::Relaxed)
        };
        match &inner.sink {
            Sink::Noop => {}
            Sink::Ring(ring) => {
                ring.lock().expect("trace ring lock poisoned").push(TraceEvent { at, kind });
            }
        }
    }

    /// Open a span. The returned guard emits the matching `Exit` on
    /// drop, so enter/exit balance is guaranteed by construction.
    /// Parentage is tracked per thread: spans opened on worker threads
    /// don't nest under the main thread's.
    #[inline]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard { tracer: Tracer::disabled(), span: 0, name };
        };
        if !inner.record {
            return SpanGuard { tracer: Tracer::disabled(), span: 0, name };
        }
        let span = inner.next_span.fetch_add(1, Ordering::Relaxed);
        let key = self.identity();
        let parent = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let parent = stack.iter().rev().find(|(k, _)| *k == key).map(|(_, id)| *id);
            stack.push((key, span));
            parent
        });
        self.emit(EventKind::Enter { span, parent, name });
        SpanGuard { tracer: self.clone(), span, name }
    }

    /// Emit a point event with an integer payload.
    #[inline]
    pub fn mark(&self, name: &'static str, value: u64) {
        if let Some(inner) = &self.inner {
            if inner.record {
                self.emit(EventKind::Mark { name, value });
            }
        }
    }

    /// Freeze everything captured so far: ring events (in order) plus a
    /// metrics snapshot. Disabled and no-op tracers dump no events.
    pub fn dump(&self) -> TraceDump {
        let Some(inner) = &self.inner else { return TraceDump::default() };
        let (events, dropped) = match &inner.sink {
            Sink::Noop => (Vec::new(), 0),
            Sink::Ring(ring) => ring.lock().expect("trace ring lock poisoned").drain_in_order(),
        };
        TraceDump { events, metrics: inner.registry.snapshot(), dropped }
    }
}

/// RAII guard for an open span; emits `Exit` and pops the thread's span
/// stack when dropped.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    tracer: Tracer,
    span: u64,
    name: &'static str,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.tracer.inner.is_none() {
            return;
        }
        let key = self.tracer.identity();
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|(k, id)| *k == key && *id == self.span) {
                stack.remove(pos);
            }
        });
        self.tracer.emit(EventKind::Exit { span: self.span, name: self.name });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_does_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        let _g = t.span("root");
        t.mark("m", 1);
        t.set_time(99);
        let dump = t.dump();
        assert!(dump.events.is_empty());
        assert!(dump.metrics.counters.is_empty());
        assert!(t.registry().is_none());
    }

    #[test]
    fn noop_tracer_keeps_metrics_but_no_events() {
        let t = Tracer::noop();
        assert!(t.is_enabled());
        {
            let _g = t.span("root");
            t.mark("m", 1);
        }
        t.registry().unwrap().counter("c").add(7);
        let dump = t.dump();
        assert!(dump.events.is_empty());
        assert_eq!(dump.metrics.counter("c"), 7);
    }

    #[test]
    fn ring_tracer_balances_and_nests_spans() {
        let t = Tracer::ring(64);
        {
            let _root = t.span("root");
            {
                let _child = t.span("child");
                t.mark("inside", 42);
            }
            let _sibling = t.span("sibling");
        }
        let dump = t.dump();
        // enter root, enter child, mark, exit child, enter sibling,
        // exit sibling, exit root.
        assert_eq!(dump.events.len(), 7);
        let names: Vec<String> = dump
            .events
            .iter()
            .map(|e| match &e.kind {
                EventKind::Enter { name, .. } => format!("+{name}"),
                EventKind::Exit { name, .. } => format!("-{name}"),
                EventKind::Mark { name, .. } => format!("={name}"),
            })
            .collect();
        assert_eq!(
            names,
            vec!["+root", "+child", "=inside", "-child", "+sibling", "-sibling", "-root"]
        );
        // child's parent is root; sibling's parent is root too.
        let parents: Vec<Option<u64>> = dump
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Enter { parent, .. } => Some(*parent),
                _ => None,
            })
            .collect();
        assert_eq!(parents[0], None);
        assert_eq!(parents[1], parents[2], "both children share the root parent");
        assert!(parents[1].is_some());
    }

    #[test]
    fn logical_clock_ticks_per_event() {
        let t = Tracer::ring(16);
        t.mark("a", 0);
        t.mark("b", 0);
        let dump = t.dump();
        assert_eq!(dump.events[0].at + 1, dump.events[1].at);
    }

    #[test]
    fn sim_clock_follows_set_time() {
        let t = Tracer::ring_sim(16);
        t.set_time(1_000_000);
        t.mark("a", 0);
        t.set_time(2_500_000);
        t.mark("b", 0);
        let dump = t.dump();
        assert_eq!(dump.events[0].at, 1_000_000);
        assert_eq!(dump.events[1].at, 2_500_000);
    }

    #[test]
    fn independent_tracers_do_not_share_parents() {
        let t1 = Tracer::ring(16);
        let t2 = Tracer::ring(16);
        let _g1 = t1.span("outer-on-t1");
        let g2 = t2.span("root-on-t2");
        // t2's span must NOT see t1's span as its parent.
        let dump = t2.dump();
        match &dump.events[0].kind {
            EventKind::Enter { parent, .. } => assert_eq!(*parent, None),
            other => panic!("expected enter, got {other:?}"),
        }
        drop(g2);
    }

    #[test]
    fn dump_twice_is_identical() {
        let t = Tracer::ring_sim(64);
        t.set_time(5);
        {
            let _g = t.span("root");
            t.mark("m", 1);
        }
        t.registry().unwrap().counter("c").add(3);
        assert_eq!(t.dump().normalized(1), t.dump().normalized(1));
        assert_eq!(t.dump().to_jsonl(), t.dump().to_jsonl());
    }
}
