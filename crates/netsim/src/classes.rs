//! Flow equivalence classes for aggregated max-min allocation.
//!
//! In a mass reinstall almost every flow is identical: each compute node
//! pulls the same package set over the same route with the same demand
//! cap. Max-min fair allocation gives identical flows identical rates,
//! so instead of progressive-filling over F flows — O(F²·L) — the fast
//! engine path fills over the C distinct (route, demand) *classes*,
//! O(C²·L), with C typically a handful.
//!
//! Each class also carries virtual-time service accounting: `service` is
//! the cumulative bytes delivered to *each* member since the class last
//! became non-empty. A member joining with `b` bytes to move is assigned
//! the finish mark `service + b`; it completes when class service reaches
//! that mark. Advancing time therefore touches O(C) state instead of
//! debiting every flow, and a class's earliest completion is the head of
//! a per-class min-heap on (finish mark, flow id).

use crate::engine::FlowId;
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap};

/// Index of a class slot within the table. Slots are never reused while
/// the table is alive; an emptied class keeps its slot and resets its
/// service clock.
pub(crate) type ClassId = usize;

/// A completion mark in a class's service-ordered heap. Ordered by
/// (finish mark, flow id) so simultaneous finishers pop lowest-id first,
/// matching the reference path's scan order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Mark {
    pub finish_service: f64,
    pub id: FlowId,
}

impl Eq for Mark {}

impl PartialOrd for Mark {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Mark {
    fn cmp(&self, other: &Self) -> Ordering {
        self.finish_service
            .partial_cmp(&other.finish_service)
            .expect("finish marks are finite")
            .then(self.id.cmp(&other.id))
    }
}

/// One (route, demand) equivalence class.
#[derive(Debug)]
pub(crate) struct Class {
    pub route: Vec<usize>,
    pub demand_bps: f64,
    /// Live member count.
    pub members: usize,
    /// Current per-member allocated rate.
    pub rate_bps: f64,
    /// Cumulative per-member service (bytes) since the class last became
    /// non-empty.
    pub service: f64,
    /// Pending completion marks, earliest first. May contain stale marks
    /// for cancelled flows; the engine prunes them lazily at the head.
    pub marks: BinaryHeap<Reverse<Mark>>,
}

/// The set of classes, with a deterministic (route, demand-bits) index so
/// rate recomputation visits classes in a stable order regardless of
/// arrival order.
#[derive(Debug, Default)]
pub(crate) struct ClassTable {
    slots: Vec<Class>,
    index: BTreeMap<(Vec<usize>, u64), ClassId>,
}

impl ClassTable {
    /// Add a flow to its (route, demand) class, creating the class on
    /// first use. Returns the class id and the flow's finish mark.
    pub(crate) fn join(
        &mut self,
        route: &[usize],
        demand_bps: f64,
        id: FlowId,
        bytes: f64,
    ) -> (ClassId, f64) {
        // Linear scan instead of a keyed lookup: class counts stay tiny
        // (distinct route × demand pairs), and this avoids allocating a
        // key vector on every flow start — the hottest call in the
        // federated sweep.
        let bits = demand_bps.to_bits();
        let found = self
            .slots
            .iter()
            .position(|c| c.demand_bps.to_bits() == bits && c.route.as_slice() == route);
        let cid = match found {
            Some(cid) => cid,
            None => {
                self.slots.push(Class {
                    route: route.to_vec(),
                    demand_bps,
                    members: 0,
                    rate_bps: 0.0,
                    service: 0.0,
                    marks: BinaryHeap::new(),
                });
                let cid = self.slots.len() - 1;
                self.index.insert((route.to_vec(), bits), cid);
                cid
            }
        };
        let class = &mut self.slots[cid];
        class.members += 1;
        let finish_service = class.service + bytes;
        class.marks.push(Reverse(Mark { finish_service, id }));
        (cid, finish_service)
    }

    /// Remove one member. When the class empties, its service clock and
    /// stale marks are reset so a later re-join starts from zero.
    pub(crate) fn leave(&mut self, cid: ClassId) {
        let class = &mut self.slots[cid];
        class.members -= 1;
        if class.members == 0 {
            class.marks.clear();
            class.service = 0.0;
            class.rate_bps = 0.0;
        }
    }

    /// Advance every active class by `dt_s` seconds, crediting delivered
    /// bytes to every link on each class route.
    pub(crate) fn advance(&mut self, dt_s: f64, link_bytes: &mut [f64]) {
        for class in &mut self.slots {
            if class.members == 0 || class.rate_bps <= 0.0 {
                continue;
            }
            let per_member = class.rate_bps * dt_s;
            class.service += per_member;
            let credited = per_member * class.members as f64;
            for &link in &class.route {
                link_bytes[link] += credited;
            }
        }
    }

    /// Head completion mark of a class, if any (may be stale).
    pub(crate) fn head(&self, cid: ClassId) -> Option<Mark> {
        self.slots[cid].marks.peek().map(|r| r.0)
    }

    /// Pop the head completion mark of a class.
    pub(crate) fn pop_head(&mut self, cid: ClassId) -> Option<Mark> {
        self.slots[cid].marks.pop().map(|r| r.0)
    }

    pub(crate) fn get(&self, cid: ClassId) -> &Class {
        &self.slots[cid]
    }

    pub(crate) fn get_mut(&mut self, cid: ClassId) -> &mut Class {
        &mut self.slots[cid]
    }

    /// Number of class slots ever created (including currently empty ones).
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Total live members across all classes. The engine asserts in
    /// debug builds that this tracks its flow map exactly — the
    /// invariant the federated shard engines lean on when they treat
    /// class membership as the count of in-flight transfers.
    pub(crate) fn live_members(&self) -> usize {
        self.slots.iter().map(|c| c.members).sum()
    }

    /// Class ids in deterministic (route, demand-bits) key order.
    pub(crate) fn ordered_ids(&self) -> impl Iterator<Item = ClassId> + '_ {
        self.index.values().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_groups_identical_flows() {
        let mut t = ClassTable::default();
        let (a, fa) = t.join(&[0], 8.0e6, 1, 100.0);
        let (b, fb) = t.join(&[0], 8.0e6, 2, 200.0);
        let (c, _) = t.join(&[0, 1], 8.0e6, 3, 100.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(t.get(a).members, 2);
        assert_eq!(fa, 100.0);
        assert_eq!(fb, 200.0);
    }

    #[test]
    fn emptied_class_resets_service_clock() {
        let mut t = ClassTable::default();
        let (cid, _) = t.join(&[0], 8.0e6, 1, 100.0);
        t.get_mut(cid).rate_bps = 1.0e6;
        let mut bytes = vec![0.0];
        t.advance(1.0, &mut bytes);
        assert_eq!(t.get(cid).service, 1.0e6);
        assert_eq!(bytes[0], 1.0e6);
        t.leave(cid);
        assert_eq!(t.get(cid).service, 0.0);
        let (cid2, finish) = t.join(&[0], 8.0e6, 2, 50.0);
        assert_eq!(cid2, cid);
        assert_eq!(finish, 50.0);
    }

    #[test]
    fn advance_credits_every_route_link() {
        let mut t = ClassTable::default();
        let (cid, _) = t.join(&[0, 2], 8.0e6, 1, 1.0e9);
        t.join(&[0, 2], 8.0e6, 2, 1.0e9);
        t.get_mut(cid).rate_bps = 4.0e6;
        let mut bytes = vec![0.0; 3];
        t.advance(2.0, &mut bytes);
        // Two members at 4 MB/s for 2 s = 16 MB total on each route link.
        assert_eq!(bytes[0], 16.0e6);
        assert_eq!(bytes[1], 0.0);
        assert_eq!(bytes[2], 16.0e6);
    }
}
