//! Timer scheduling with lazy invalidation.
//!
//! Timers are armed far more often than they are cancelled, and
//! cancellation (a node power-cycle dropping its pending wakeup) used to
//! `retain` over every armed timer — O(T) per cancel, O(T²) across a
//! mass reinstall. This queue keeps every armed timer in a binary heap
//! keyed on (fire time, arm sequence) and *marks* cancellations instead
//! of removing them, by bumping a per-tag epoch: a heap entry is live
//! exactly when the epoch it was armed under is still the tag's current
//! epoch, and stale entries are discarded lazily when they surface at
//! the top.
//!
//! The epoch scheme replaced an earlier per-sequence live table: arming
//! and retiring a timer is now a heap push/pop plus a counter update in
//! the bounded per-tag state map — no per-timer hashing or allocation —
//! which matters because the federated sweep retires tens of millions of
//! timers per run.
//!
//! Both engine paths share this queue so their timer semantics are
//! identical by construction: the earliest live timer wins, and timers
//! armed earlier fire first on equal timestamps (FIFO by arm sequence).

use crate::engine::SimTime;
use crate::hash::IntMap;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Cancellation state for one tag. Entries are never removed — the tag
/// set of an engine is bounded (its nodes plus a few control tags), so
/// the map reaches a fixed size and stops allocating.
#[derive(Debug, Default, Clone, Copy)]
struct TagState {
    /// Bumped on `cancel_tag`; heap entries armed under older epochs are
    /// dead.
    epoch: u64,
    /// Live timers currently armed with this tag.
    live: u32,
}

/// A heap entry: (fire time, arm sequence, tag, epoch at arm time).
/// Ordering is by (fire time, arm sequence); sequence is unique so the
/// trailing fields never tie-break.
type Entry = Reverse<(SimTime, u64, usize, u64)>;

/// The timer queue: heap for the fast path, per-tag epochs for
/// cancellation, and a lazy sweep for the reference path's linear scan.
#[derive(Debug, Default)]
pub(crate) struct TimerQueue {
    /// All entries armed and not yet retired, including stale ones
    /// awaiting lazy removal.
    heap: BinaryHeap<Entry>,
    tags: IntMap<usize, TagState>,
    live_count: usize,
    next_seq: u64,
}

impl TimerQueue {
    /// Arm a timer firing at absolute time `at`.
    pub(crate) fn arm(&mut self, tag: usize, at: SimTime) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let st = self.tags.entry(tag).or_default();
        st.live += 1;
        self.live_count += 1;
        self.heap.push(Reverse((at, seq, tag, st.epoch)));
    }

    /// Cancel every live timer with `tag`. The heap entries stay behind
    /// as stale markers and are discarded when they reach the top.
    pub(crate) fn cancel_tag(&mut self, tag: usize) {
        if let Some(st) = self.tags.get_mut(&tag) {
            self.live_count -= st.live as usize;
            st.live = 0;
            st.epoch += 1;
        }
    }

    fn is_live(&self, tag: usize, epoch: u64) -> bool {
        self.tags.get(&tag).is_some_and(|st| st.epoch == epoch)
    }

    /// Retire the fired timer `seq`. Only the earliest live timer can
    /// fire (both engine paths pick it via [`peek_earliest`](Self::peek_earliest)
    /// or [`earliest_scan`](Self::earliest_scan)), so after discarding
    /// stale heads it is the top of the heap; firing anything else is a
    /// tolerated no-op, matching a timer cancelled in between.
    pub(crate) fn fire(&mut self, seq: u64) {
        while let Some(&Reverse((_, s, tag, epoch))) = self.heap.peek() {
            if !self.is_live(tag, epoch) {
                self.heap.pop();
                continue;
            }
            if s == seq {
                self.heap.pop();
                let st = self.tags.get_mut(&tag).expect("live entry has tag state");
                st.live -= 1;
                self.live_count -= 1;
            }
            return;
        }
    }

    /// Fast path: the earliest live timer via the heap, popping stale
    /// (cancelled) entries encountered on the way up.
    pub(crate) fn peek_earliest(&mut self) -> Option<(SimTime, u64, usize)> {
        while let Some(&Reverse((at, seq, tag, epoch))) = self.heap.peek() {
            if self.is_live(tag, epoch) {
                return Some((at, seq, tag));
            }
            self.heap.pop();
        }
        None
    }

    /// Reference path: the earliest live timer by linear scan. Same
    /// (fire time, arm sequence) order as the heap, so both paths agree
    /// on ties.
    pub(crate) fn earliest_scan(&self) -> Option<(SimTime, u64, usize)> {
        self.heap
            .iter()
            .filter(|&&Reverse((_, _, tag, epoch))| self.is_live(tag, epoch))
            .map(|&Reverse((at, seq, tag, _))| (at, seq, tag))
            .min_by_key(|&(at, seq, _)| (at, seq))
    }

    /// Number of live (armed, unfired, uncancelled) timers.
    pub(crate) fn len(&self) -> usize {
        self.live_count
    }

    /// True when no live timers are armed. Cheaper than `len() == 0`
    /// for the federated driver's has-work probe, which runs per shard
    /// per window.
    pub(crate) fn is_empty(&self) -> bool {
        self.live_count == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_on_equal_timestamps() {
        let mut q = TimerQueue::default();
        q.arm(1, 100);
        q.arm(2, 100);
        let (at, seq, tag) = q.peek_earliest().unwrap();
        assert_eq!((at, tag), (100, 1));
        assert_eq!(q.earliest_scan().unwrap(), (at, seq, tag));
        q.fire(seq);
        let (_, seq2, tag2) = q.peek_earliest().unwrap();
        assert_eq!(tag2, 2);
        q.fire(seq2);
        assert!(q.peek_earliest().is_none());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn cancelled_entries_are_skipped_lazily() {
        let mut q = TimerQueue::default();
        q.arm(7, 50);
        q.arm(8, 60);
        q.cancel_tag(7);
        assert_eq!(q.len(), 1);
        // The stale tag-7 entry is still physically in the heap; the peek
        // discards it and surfaces tag 8.
        let (at, _, tag) = q.peek_earliest().unwrap();
        assert_eq!((at, tag), (60, 8));
    }

    #[test]
    fn rearmed_tag_gets_fresh_entry() {
        let mut q = TimerQueue::default();
        q.arm(3, 500);
        q.cancel_tag(3);
        q.arm(3, 200);
        let (at, seq, tag) = q.peek_earliest().unwrap();
        assert_eq!((at, tag), (200, 3));
        q.fire(seq);
        assert!(q.peek_earliest().is_none());
    }
}
