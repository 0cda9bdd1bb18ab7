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
//! - **One sink**: a bounded ring buffer ([`Tracer::ring`] /
//!   [`Tracer::ring_sim`]) that counts what it evicts
//!   ([`TraceDump::dropped`]). The disabled tracer
//!   ([`Tracer::disabled`]) has no sink: its every operation inlines to
//!   an early return on a `None` — the zero-cost-when-off configuration.

mod metrics;
mod sink;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Registry, Snapshot};
pub use sink::TraceDump;

use sink::Ring;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// What happened, inside a [`TraceEvent`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened.
    Enter {
        /// This span's id (unique per tracer).
        span: u64,
        /// The innermost span of the same tracer still open, if any.
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
struct TracerInner {
    ring: RefCell<Ring>,
    /// Virtual clock. Under logical mode every emitted event ticks it;
    /// under sim mode the instrumented code drives it via `set_time`.
    clock: Cell<u64>,
    auto_tick: bool,
    next_span: Cell<u64>,
    /// Ids of the open spans, innermost last: the parent of the next.
    stack: RefCell<Vec<u64>>,
    registry: Registry,
}

/// Handle to one telemetry pipeline. Cloning shares the pipeline, span
/// stack included; the handle lives on one thread.
///
/// `Tracer::disabled()` is the default everywhere: its `inner` is
/// `None`, so `span`/`mark`/`set_time` inline to a single branch and
/// the compiler deletes the rest — telemetry off costs nothing.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    inner: Option<Rc<TracerInner>>,
}

impl Tracer {
    /// The zero-cost-off tracer: every operation is an inlined early
    /// return.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// Ring-buffer collector with a *logical* clock: each emitted event
    /// gets the next tick. For code with no simulation clock
    /// (kickstart generation, dist builds, SQL).
    pub fn ring(cap: usize) -> Tracer {
        Tracer::build(cap, true)
    }

    /// Ring-buffer collector with a *virtual-time* clock: timestamps
    /// are whatever the simulator last fed via [`Tracer::set_time`]
    /// (µs). For netsim-driven scenarios.
    pub fn ring_sim(cap: usize) -> Tracer {
        Tracer::build(cap, false)
    }

    fn build(cap: usize, auto_tick: bool) -> Tracer {
        Tracer {
            inner: Some(Rc::new(TracerInner {
                ring: RefCell::new(Ring::new(cap)),
                clock: Cell::new(0),
                auto_tick,
                next_span: Cell::new(1),
                stack: RefCell::new(Vec::new()),
                registry: Registry::new(),
            })),
        }
    }

    /// Whether events (spans/marks/timestamps) are captured — false only
    /// for the disabled tracer. Hot loops can cache this to skip event
    /// bookkeeping entirely when nothing will be recorded.
    #[inline]
    pub fn records_events(&self) -> bool {
        self.inner.is_some()
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
            if !inner.auto_tick {
                inner.clock.set(t);
            }
        }
    }

    #[inline]
    fn emit(&self, kind: EventKind) {
        let Some(inner) = &self.inner else { return };
        if inner.auto_tick {
            inner.clock.set(inner.clock.get() + 1);
        }
        inner.ring.borrow_mut().push(TraceEvent { at: inner.clock.get(), kind });
    }

    /// Open a span. The returned guard emits the matching `Exit` on
    /// drop, so enter/exit balance is guaranteed by construction.
    /// Its parent is the innermost span of this tracer still open; the
    /// one thread that holds the tracer opens and closes them all.
    #[inline]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard { tracer: Tracer::disabled(), span: 0, name };
        };
        let span = inner.next_span.get();
        inner.next_span.set(span + 1);
        let parent = inner.stack.borrow().last().copied();
        inner.stack.borrow_mut().push(span);
        self.emit(EventKind::Enter { span, parent, name });
        SpanGuard { tracer: self.clone(), span, name }
    }

    /// Emit a point event with an integer payload.
    #[inline]
    pub fn mark(&self, name: &'static str, value: u64) {
        self.emit(EventKind::Mark { name, value });
    }

    /// Freeze everything captured so far: ring events (in order) plus a
    /// metrics snapshot. The disabled tracer dumps nothing.
    pub fn dump(&self) -> TraceDump {
        let Some(inner) = &self.inner else { return TraceDump::default() };
        let (events, dropped) = inner.ring.borrow().drain_in_order();
        TraceDump { events, metrics: inner.registry.snapshot(), dropped }
    }
}

/// RAII guard for an open span; emits `Exit` and takes the span off its
/// tracer's stack when dropped.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    tracer: Tracer,
    span: u64,
    name: &'static str,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = &self.tracer.inner else { return };
        let mut stack = inner.stack.borrow_mut();
        if let Some(pos) = stack.iter().rposition(|id| *id == self.span) {
            stack.remove(pos);
        }
        drop(stack);
        self.tracer.emit(EventKind::Exit { span: self.span, name: self.name });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_does_nothing() {
        let t = Tracer::disabled();
        assert!(!t.records_events());
        let _g = t.span("root");
        t.mark("m", 1);
        t.set_time(99);
        let dump = t.dump();
        assert!(dump.events.is_empty());
        assert!(dump.metrics.counters.is_empty());
        assert!(t.registry().is_none());
    }

    #[test]
    fn a_full_ring_keeps_the_newest_events_and_counts_the_rest() {
        let t = Tracer::ring(4);
        for i in 0..10 {
            t.mark("m", i);
        }
        let dump = t.dump();
        assert_eq!(dump.events.len(), 4);
        assert_eq!(dump.dropped, 6);
        let values: Vec<u64> = dump
            .events
            .iter()
            .map(|e| match e.kind {
                EventKind::Mark { value, .. } => value,
                _ => panic!("only marks were emitted"),
            })
            .collect();
        assert_eq!(values, [6, 7, 8, 9]);
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
