//! What every workload takes and gives back.

use crate::estimator::{interleave, summarize, tail_of_clean_rounds, Better, Lane, Summary};
use crate::util::{peak_rss_mb, timed};
use std::collections::BTreeMap;

/// How large and how long. Full size is what the end-to-end metrics are
/// measured at; smoke size (1/50) exists so that API drift in the crates
/// fails a quick test, and so that a traced run can put a real number
/// on the layers its own workload never enters.
#[derive(Clone, Copy, Debug)]
pub struct Run {
    pub seed: u64,
    /// Measuring budget of the whole workload, seconds.
    pub seconds: f64,
    /// Fixture sizes are divided by this: 1 (full) or 50 (smoke).
    pub size_div: usize,
    /// Share of the full length: 1.0, or 0.2 for the traced pass.
    pub len: f64,
}

impl Run {
    pub fn full(seed: u64, seconds: f64) -> Run {
        Run { seed, seconds, size_div: 1, len: 1.0 }
    }

    pub fn smoke(seed: u64) -> Run {
        Run { seed, seconds: 0.0, size_div: 50, len: 1.0 }
    }

    /// The same run at one-fifth length.
    pub fn fifth(self) -> Run {
        Run { len: 0.2, ..self }
    }

    pub fn is_smoke(&self) -> bool {
        self.size_div > 1
    }

    /// A fixture dimension: `full` at full size, never below `floor`.
    pub fn size(&self, full: usize, floor: usize) -> usize {
        (full / self.size_div).max(floor)
    }

    /// Interleave rounds of the given kinds over this run's budget.
    /// A smoke run does one round of each; a run at one-fifth length
    /// gets a fifth of the time and of each cap.
    ///
    /// Returns the process's peak resident set, in MB, at the moment
    /// every lane had done its minimum. The peak of a whole window
    /// depends on how many rounds the host had time for (each round that
    /// spawns threads may touch a fresh allocator arena); the peak after
    /// a fixed amount of work does not.
    pub fn interleave(&self, lanes: &[Lane], round: impl FnMut(usize, usize)) -> Option<f64> {
        let scaled: Vec<Lane> = lanes
            .iter()
            .map(|l| {
                if self.is_smoke() {
                    return Lane::new(l.share, 1, 1);
                }
                let max = ((l.max as f64 * self.len).round() as usize).max(1);
                Lane::new(l.share, l.min.min(max), max)
            })
            .collect();
        let mut floor_rss_mb = None;
        interleave(self.seconds * self.len, &scaled, round, || floor_rss_mb = peak_rss_mb());
        floor_rss_mb
    }
}

/// Counts operations whose output was checked, and the ones that failed
/// or came back wrong. Feeds `attempted` / `failed` of the result line.
#[derive(Debug, Default)]
pub struct Check {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the person reading the output.
    pub notes: Vec<String>,
}

impl Check {
    /// One operation: `ok` says whether its output was right.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.ops(1, u64::from(!ok), what);
    }

    /// `n` operations of which `failed` were wrong.
    pub fn ops(&mut self, n: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += n;
        self.failed += failed;
        if failed > 0 && self.notes.len() < 8 {
            self.notes.push(what());
        }
    }

    pub fn merge(&mut self, other: Check) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.notes.truncate(8);
    }
}

/// The end-to-end result of one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, Summary>,
    pub check: Check,
    /// See [`Run::interleave`].
    pub floor_rss_mb: Option<f64>,
}

impl Outcome {
    /// Reduce a metric's per-round values to its summary.
    pub fn put(&mut self, name: &'static str, rounds: &[f64], better: Better) {
        self.metrics.insert(name, summarize(rounds, better));
    }

    /// A tail latency in microseconds from each round's samples in
    /// nanoseconds; see [`tail_of_clean_rounds`].
    pub fn put_tail_us(&mut self, name: &'static str, rounds_ns: &mut [Vec<f64>], p: f64) {
        let ns = tail_of_clean_rounds(rounds_ns, p);
        let us = |v: f64| v / 1e3;
        let summary = Summary {
            value: us(ns.value),
            median: us(ns.median),
            q1: us(ns.q1),
            q3: us(ns.q3),
            rounds: ns.rounds,
        };
        self.metrics.insert(name, summary);
    }
}

/// Per-layer metric values of a traced run, by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Build the fixture once per round of `lane` within `seconds`,
/// dropping each before the next. Returns the last one and the seconds
/// each build took.
pub fn setup<T>(within: f64, lane: Lane, mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut seconds = Vec::new();
    let mut last = None;
    interleave(
        within,
        &[lane],
        |_, _| {
            drop(last.take());
            let (fixture, ns) = timed(&mut build);
            seconds.push(ns / 1e9);
            last = Some(fixture);
        },
        || {},
    );
    (last.expect("a lane has at least one round"), seconds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_and_phases_scale() {
        let full = Run::full(1, 10.0);
        assert_eq!(full.size(1024, 16), 1024);
        assert_eq!(Run::smoke(1).size(1024, 16), 20);
        assert_eq!(Run::smoke(1).size(256, 16), 16);
        let mut rounds = Vec::new();
        Run::smoke(1).interleave(&[Lane::new(0.5, 5, 20), Lane::new(0.5, 3, 3)], |l, i| {
            rounds.push((l, i));
        });
        rounds.sort_unstable();
        assert_eq!(rounds, [(0, 0), (1, 0)], "a smoke run does one round of each");
        // One-fifth length: a fifth of each cap, floors lowered to fit.
        let mut n = 0;
        Run::full(1, 60.0).fifth().interleave(&[Lane::new(1.0, 5, 20)], |_, _| n += 1);
        assert_eq!(n, 4);
    }

    #[test]
    fn checks_count_attempts_and_failures() {
        let mut c = Check::default();
        c.op(true, || unreachable!());
        c.op(false, || "wrong body".into());
        c.ops(10, 0, || unreachable!());
        assert_eq!((c.attempted, c.failed, c.notes.len()), (12, 1, 1));
        let mut d = Check::default();
        d.merge(c);
        assert_eq!((d.attempted, d.failed), (12, 1));
    }

    #[test]
    fn setup_keeps_the_last_build_and_every_time() {
        let mut n = 0;
        let (last, seconds) = setup(0.0, Lane::new(1.0, 3, 3), || {
            n += 1;
            n
        });
        assert_eq!((last, seconds.len()), (3, 3));
    }
}
