//! Trace sinks and dump rendering.
//!
//! A [`TraceDump`] is a frozen copy of everything a
//! tracer captured: the ordered event stream from the ring buffer plus
//! a metrics snapshot. Two renderings exist:
//!
//! - [`to_jsonl`](crate::TraceDump::to_jsonl): one JSON object per
//!   line, every event and metric included — the `reproduce` artifact
//!   format.
//! - [`normalized`](crate::TraceDump::normalized): the canonical form
//!   the golden-trace suite pins. Span ids are renumbered by first
//!   appearance, timestamps are quantized, wall-clock (`*_ns`) metrics
//!   and float-valued gauges/histograms are excluded, so the same seed
//!   yields the same bytes across engine modes and machines.

use crate::metrics::Snapshot;
use crate::{EventKind, TraceEvent};
use std::collections::BTreeMap;

/// Bounded event store: keeps the most recent `cap` events, counting
/// (not storing) anything older.
#[derive(Debug)]
pub(crate) struct Ring {
    cap: usize,
    buf: Vec<TraceEvent>,
    start: usize,
    dropped: u64,
}

impl Ring {
    pub(crate) fn new(cap: usize) -> Self {
        Ring { cap: cap.max(1), buf: Vec::new(), start: 0, dropped: 0 }
    }

    pub(crate) fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.start] = ev;
            self.start = (self.start + 1) % self.cap;
            self.dropped += 1;
        }
    }

    pub(crate) fn drain_in_order(&self) -> (Vec<TraceEvent>, u64) {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.start..]);
        out.extend_from_slice(&self.buf[..self.start]);
        (out, self.dropped)
    }
}

/// Frozen copy of one tracer's capture: events in order, metrics
/// snapshot, and how many events the ring had to drop.
#[derive(Clone, Debug, Default)]
pub struct TraceDump {
    /// Events in capture order (oldest first).
    pub events: Vec<TraceEvent>,
    /// Metrics at dump time.
    pub metrics: Snapshot,
    /// Events evicted from the ring before the dump.
    pub dropped: u64,
}

impl TraceDump {
    /// Render as JSON-lines: one object per event, then one per metric.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            match &ev.kind {
                EventKind::Enter { span, parent, name } => {
                    let parent = parent.map_or_else(|| "null".to_string(), |p| p.to_string());
                    out.push_str(&format!(
                        "{{\"ev\":\"enter\",\"name\":\"{name}\",\"span\":{span},\"parent\":{parent},\"at\":{}}}\n",
                        ev.at
                    ));
                }
                EventKind::Exit { span, name } => {
                    out.push_str(&format!(
                        "{{\"ev\":\"exit\",\"name\":\"{name}\",\"span\":{span},\"at\":{}}}\n",
                        ev.at
                    ));
                }
                EventKind::Mark { name, value } => {
                    out.push_str(&format!(
                        "{{\"ev\":\"mark\",\"name\":\"{name}\",\"value\":{value},\"at\":{}}}\n",
                        ev.at
                    ));
                }
            }
        }
        for (k, v) in &self.metrics.counters {
            out.push_str(&format!("{{\"metric\":\"counter\",\"name\":\"{k}\",\"value\":{v}}}\n"));
        }
        for (k, v) in &self.metrics.gauges {
            out.push_str(&format!("{{\"metric\":\"gauge\",\"name\":\"{k}\",\"value\":{v:.3}}}\n"));
        }
        for (k, h) in &self.metrics.histograms {
            out.push_str(&format!(
                "{{\"metric\":\"histogram\",\"name\":\"{k}\",\"count\":{},\"sum\":{}}}\n",
                h.count, h.sum
            ));
        }
        out
    }

    /// Canonical, comparison-safe rendering for the golden-trace suite.
    ///
    /// Determinism rules applied here (documented in DESIGN.md):
    /// - span ids are renumbered in order of first appearance, so the
    ///   absolute values of the tracer's id counter never leak;
    /// - timestamps are divided by `quantum` (µs), absorbing the ≤1µs
    ///   fast/reference scheduler skew;
    /// - counters named `*_ns` (wall-clock nanoseconds) are excluded;
    /// - gauges and histograms are excluded entirely — their float /
    ///   latency content is covered by conservation proptests instead.
    pub fn normalized(&self, quantum: u64) -> String {
        let quantum = quantum.max(1);
        let mut ids: BTreeMap<u64, u64> = BTreeMap::new();
        let mut next = 1u64;
        let mut renumber = |raw: u64, ids: &mut BTreeMap<u64, u64>| -> u64 {
            *ids.entry(raw).or_insert_with(|| {
                let id = next;
                next += 1;
                id
            })
        };
        let mut out = String::new();
        for ev in &self.events {
            let t = ev.at / quantum;
            match &ev.kind {
                EventKind::Enter { span, parent, name } => {
                    let s = renumber(*span, &mut ids);
                    let p = parent
                        .map(|p| renumber(p, &mut ids).to_string())
                        .unwrap_or_else(|| "-".to_string());
                    out.push_str(&format!("enter {name} span={s} parent={p} t={t}\n"));
                }
                EventKind::Exit { span, name } => {
                    let s = renumber(*span, &mut ids);
                    out.push_str(&format!("exit {name} span={s} t={t}\n"));
                }
                EventKind::Mark { name, value } => {
                    out.push_str(&format!("mark {name} value={value} t={t}\n"));
                }
            }
        }
        for (k, v) in &self.metrics.counters {
            if k.ends_with("_ns") {
                continue;
            }
            out.push_str(&format!("counter {k} = {v}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enter(span: u64, parent: Option<u64>, name: &'static str, at: u64) -> TraceEvent {
        TraceEvent { at, kind: EventKind::Enter { span, parent, name } }
    }

    fn exit(span: u64, name: &'static str, at: u64) -> TraceEvent {
        TraceEvent { at, kind: EventKind::Exit { span, name } }
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let mut ring = Ring::new(2);
        for i in 0..5u64 {
            ring.push(TraceEvent { at: i, kind: EventKind::Mark { name: "m", value: i } });
        }
        let (events, dropped) = ring.drain_in_order();
        assert_eq!(dropped, 3);
        let ats: Vec<u64> = events.iter().map(|e| e.at).collect();
        assert_eq!(ats, vec![3, 4]);
    }

    #[test]
    fn normalized_renumbers_span_ids_by_first_appearance() {
        // Same structure, wildly different raw ids → identical output.
        let a = TraceDump {
            events: vec![
                enter(7, None, "root", 1000),
                enter(9, Some(7), "child", 2000),
                exit(9, "child", 3000),
                exit(7, "root", 4000),
            ],
            ..TraceDump::default()
        };
        let b = TraceDump {
            events: vec![
                enter(100, None, "root", 1000),
                enter(350, Some(100), "child", 2000),
                exit(350, "child", 3000),
                exit(100, "root", 4000),
            ],
            ..TraceDump::default()
        };
        assert_eq!(a.normalized(1000), b.normalized(1000));
        assert!(a.normalized(1000).contains("enter root span=1 parent=- t=1"));
        assert!(a.normalized(1000).contains("enter child span=2 parent=1 t=2"));
    }

    #[test]
    fn normalized_excludes_wall_clock_counters() {
        let mut dump = TraceDump::default();
        dump.metrics.counters.insert("kickstart.lookup_ns".into(), 12345);
        dump.metrics.counters.insert("kickstart.requests".into(), 4);
        let norm = dump.normalized(1);
        assert!(!norm.contains("lookup_ns"), "wall-clock metrics must not appear: {norm}");
        assert!(norm.contains("counter kickstart.requests = 4"));
    }

    #[test]
    fn jsonl_renders_every_event_kind() {
        let mut dump = TraceDump {
            events: vec![
                enter(1, None, "root", 5),
                TraceEvent { at: 6, kind: EventKind::Mark { name: "tick", value: 9 } },
                exit(1, "root", 7),
            ],
            ..TraceDump::default()
        };
        dump.metrics.counters.insert("c".into(), 1);
        dump.metrics.gauges.insert("g".into(), 2.0);
        let jsonl = dump.to_jsonl();
        assert_eq!(jsonl.lines().count(), 5);
        assert!(jsonl.contains("\"ev\":\"enter\""));
        assert!(jsonl.contains("\"ev\":\"mark\""));
        assert!(jsonl.contains("\"ev\":\"exit\""));
        assert!(jsonl.contains("\"metric\":\"counter\""));
        assert!(jsonl.contains("\"metric\":\"gauge\""));
    }
}
