//! The benchmark's own span recorder.
//!
//! A span is recorded around each call the benchmark makes into a layer
//! of the program: name, start, end, the span that was open when it
//! started, and the request it belongs to. Spans stay in memory and are
//! written out once, when the run ends. Nothing is recorded inside the
//! program under test; where a layer is only reachable nested inside
//! another call, the workload replays that call alone and subtracts.
//!
//! All calls into the program are made from the benchmark's main thread
//! (the program may fan out inside a call), so the recorder is
//! single-threaded.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request (or round) this call served.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    pub calls: u64,
    pub total_ns: u64,
    /// Total minus the part covered by child spans.
    pub self_ns: u64,
}

#[derive(Debug)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Records spans when enabled; a disabled recorder runs the call and
/// records nothing, so one code path serves the traced and the untraced
/// run.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    state: Option<RefCell<State>>,
}

impl Recorder {
    pub fn enabled() -> Recorder {
        Recorder {
            origin: Instant::now(),
            state: Some(RefCell::new(State { spans: Vec::new(), open: Vec::new() })),
        }
    }

    pub fn disabled() -> Recorder {
        Recorder { origin: Instant::now(), state: None }
    }

    /// Run `f` inside a span.
    pub fn span<T>(&self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let Some(state) = &self.state else {
            return f();
        };
        let index = {
            let mut s = state.borrow_mut();
            let parent = s.open.last().copied();
            let start_ns = self.origin.elapsed().as_nanos() as u64;
            s.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
            let index = s.spans.len() - 1;
            s.open.push(index);
            index
        };
        let out = f();
        let mut s = state.borrow_mut();
        s.spans[index].end_ns = self.origin.elapsed().as_nanos() as u64;
        let closed = s.open.pop();
        debug_assert_eq!(closed, Some(index), "spans close in the order they nest");
        out
    }

    /// Spans recorded so far; a mark for [`spans_from`](Self::spans_from).
    pub fn len(&self) -> usize {
        self.state.as_ref().map_or(0, |s| s.borrow().spans.len())
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans_from(0)
    }

    /// The spans recorded since `mark`, with parents that lie before the
    /// mark cut off, so the slice stands on its own.
    pub fn spans_from(&self, mark: usize) -> Vec<Span> {
        let Some(state) = &self.state else {
            return Vec::new();
        };
        let rebase =
            |s: &Span| Span { parent: s.parent.and_then(|p| p.checked_sub(mark)), ..s.clone() };
        state.borrow().spans[mark..].iter().map(rebase).collect()
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            ));
        }
        out.push_str("\n]\n");
        out
    }
}

/// Durations, in nanoseconds, of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64).collect()
}

/// Median duration, in nanoseconds, of the spans called `name`.
pub fn median_duration(spans: &[Span], name: &str) -> f64 {
    crate::estimator::median(&mut durations(spans, name))
}

/// Total and self time per span name. A span's self time is its
/// duration minus the part of that interval its direct children cover;
/// children of one parent never overlap, because they are recorded by
/// one thread.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(covered) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, request: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("request", 0, 100, None),
            span("resolve", 10, 30, Some(0)),
            span("render", 40, 90, Some(0)),
            span("escape", 50, 60, Some(2)),
            span("request", 200, 250, None),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["request"], LayerTime { calls: 2, total_ns: 150, self_ns: 30 + 50 });
        assert_eq!(t["resolve"], LayerTime { calls: 1, total_ns: 20, self_ns: 20 });
        // A grandchild is charged to its parent only, not twice.
        assert_eq!(t["render"], LayerTime { calls: 1, total_ns: 50, self_ns: 40 });
        assert_eq!(t["escape"].self_ns, 10);
        let total_self: u64 = t.values().map(|l| l.self_ns).sum();
        assert_eq!(total_self, 150, "self times partition the root spans");
    }

    #[test]
    fn recorder_nests_spans_and_a_disabled_one_records_nothing() {
        let rec = Recorder::enabled();
        let out = rec.span("outer", 7, || rec.span("inner", 7, || 41) + 1);
        assert_eq!(out, 42);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent, spans[1].request), ("inner", Some(0), 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(rec.to_json().contains("\"name\":\"inner\""));

        assert_eq!(rec.len(), 2);
        assert_eq!(rec.spans_from(1)[0].parent, None, "a parent before the mark is cut off");
        assert_eq!(durations(&spans, "inner"), [spans[1].duration_ns() as f64]);

        let off = Recorder::disabled();
        assert_eq!(off.span("outer", 0, || 5), 5);
        assert!(off.spans().is_empty() && off.len() == 0);
    }
}
