//! The simulation engine: virtual time, timers, and fluid bandwidth
//! sharing.
//!
//! Bandwidth follows the classic fluid-flow model: at any instant every
//! active flow receives a max-min fair rate subject to (a) its own demand
//! cap (the node NIC / single-TCP-stream limit) and (b) its server's
//! uplink capacity. Whenever the flow set changes, rates are recomputed
//! and the next completion re-derived — no fixed timestep, so results are
//! exact for the model.
//!
//! # Two execution paths
//!
//! The engine carries two interchangeable schedulers selected by
//! [`EngineMode`]:
//!
//! * **[`EngineMode::Fast`]** (the default) groups flows into (route,
//!   demand) equivalence classes ([`crate::classes`]), progressive-fills
//!   over classes instead of flows (O(C²·L) per recompute), tracks
//!   cumulative per-class service so advancing time touches O(C) state
//!   instead of debiting every flow, and finds the next timer through a
//!   lazy-deletion binary heap ([`crate::queue`]). This is what lets the
//!   reinstall sweep reach 8192 nodes.
//! * **[`EngineMode::Reference`]** is the original per-flow
//!   implementation, kept verbatim as the correctness oracle:
//!   [`Engine::recompute_rates_ref`] fills per flow in O(F²·L) and
//!   `step` debits every flow on every event. The differential proptest
//!   suite (`tests/proptest_diff_engine.rs`) asserts the two paths agree
//!   on completion order, event timestamps, and per-link byte totals.
//!
//! Both paths share mutation entry points, the timer queue, and the
//! tie-break rules: a timer beats a flow on equal timestamps (`tt <=
//! ft`), simultaneous flow completions pop lowest id first, and
//! simultaneous timers fire in arm order.

use crate::classes::{ClassId, ClassTable};
use crate::hash::IntMap;
use crate::queue::TimerQueue;
use std::collections::BTreeMap;
use std::fmt;

/// Virtual time in microseconds since simulation start.
pub type SimTime = u64;

/// Convert seconds to [`SimTime`].
pub fn micros(seconds: f64) -> SimTime {
    (seconds * 1e6).round() as SimTime
}

/// Convert [`SimTime`] to seconds.
pub fn seconds(t: SimTime) -> f64 {
    t as f64 / 1e6
}

/// Handle to an active flow.
pub(crate) type FlowId = u64;

/// Which scheduler the engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// Class-aggregated rates, virtual-time service accounting, and
    /// heap-based event lookup. The production path.
    Fast,
    /// The original per-flow implementation, kept as the correctness
    /// oracle for differential testing.
    Reference,
}

/// A simulation-level error surfaced to drivers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The engine went idle while flows were still active: every
    /// remaining flow has zero allocated rate (e.g. its server is down)
    /// and no timer is armed to change that. Callers looping on
    /// [`Engine::step`] would otherwise spin on `Wakeup::Idle` forever.
    Stalled {
        /// Number of flows stuck with zero rate.
        active_flows: usize,
        /// Which cabinet sub-simulator stalled, for federated runs;
        /// `None` for the flat single-engine driver.
        shard: Option<usize>,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Stalled { active_flows, shard: Some(shard) } => write!(
                f,
                "simulation stalled in shard {shard}: {active_flows} active flow(s) have \
                 no bandwidth and no timer is armed"
            ),
            SimError::Stalled { active_flows, shard: None } => write!(
                f,
                "simulation stalled: {active_flows} active flow(s) have no bandwidth \
                 and no timer is armed"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// An active bulk transfer.
#[derive(Debug, Clone)]
pub(crate) struct Flow {
    /// Bytes still to move. Maintained by the reference path; the fast
    /// path derives progress from class service instead and leaves this
    /// at the starting size.
    pub remaining: f64,
    /// Demand cap in bytes/s (NIC or single-stream limit).
    pub demand_bps: f64,
    /// Opaque tag the owner uses to route the completion (node id).
    pub tag: usize,
    /// Currently allocated rate (reference path; the fast path reads the
    /// class rate instead).
    rate_bps: f64,
    /// Equivalence class this flow belongs to. The links the flow
    /// traverses (server uplink, and optionally a cabinet-switch uplink —
    /// Figure 1's two-tier Ethernet) live on the class: every member
    /// shares the same route by construction, so flows don't own a copy.
    class: ClassId,
    /// Class service level at which this flow completes (fast path).
    finish_service: f64,
}

/// What the engine hands back on each step.
#[derive(Debug, Clone, PartialEq)]
pub enum Wakeup {
    /// A flow finished; `tag` identifies the owner.
    FlowDone {
        /// Owner tag (node id).
        tag: usize,
    },
    /// A timer fired; `tag` identifies the owner.
    TimerFired {
        /// Owner tag (node id).
        tag: usize,
    },
    /// Nothing left to do.
    Idle,
}

/// The engine: clock, flows, timers, per-link capacity.
///
/// Links are anonymous capacity constraints: the cluster layer assigns
/// link 0..S to server uplinks and any further links to cabinet-switch
/// uplinks.
#[derive(Debug)]
pub struct Engine {
    now: SimTime,
    next_flow_id: FlowId,
    mode: EngineMode,
    flows: BTreeMap<FlowId, Flow>,
    /// Live flow ids per tag, for O(k) tagged cancellation. Entries
    /// outlive their flows (an emptied vector keeps its capacity for the
    /// tag's next flow) so the per-flow path never allocates here.
    flows_by_tag: IntMap<usize, Vec<FlowId>>,
    classes: ClassTable,
    timers: TimerQueue,
    /// Per-link capacity in bytes/s.
    link_capacity: Vec<f64>,
    /// Bytes delivered over each link (for throughput accounting).
    link_bytes: Vec<f64>,
    /// True while rates need recomputation.
    dirty: bool,
}

/// The earlier of two optional event times.
fn earlier(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

impl Engine {
    /// Create an engine with the given per-link capacities (servers
    /// first, by convention), running the fast scheduler.
    pub fn new(link_capacity: Vec<f64>) -> Engine {
        Engine::new_with_mode(link_capacity, EngineMode::Fast)
    }

    /// Create an engine with an explicit scheduler mode.
    pub fn new_with_mode(link_capacity: Vec<f64>, mode: EngineMode) -> Engine {
        let n = link_capacity.len();
        Engine {
            now: 0,
            next_flow_id: 1,
            mode,
            flows: BTreeMap::new(),
            flows_by_tag: IntMap::default(),
            classes: ClassTable::default(),
            timers: TimerQueue::default(),
            link_capacity,
            link_bytes: vec![0.0; n],
            dirty: false,
        }
    }

    /// Append a link; returns its id. Used by topologies that add
    /// cabinet uplinks after the server links.
    pub fn add_link(&mut self, capacity_bps: f64) -> usize {
        self.link_capacity.push(capacity_bps);
        self.link_bytes.push(0.0);
        self.link_capacity.len() - 1
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Change a link's capacity mid-run (failure injection sets 0).
    pub fn set_link_capacity(&mut self, link: usize, bps: f64) {
        self.link_capacity[link] = bps;
        self.dirty = true;
    }

    /// A link's capacity.
    pub fn link_capacity(&self, link: usize) -> f64 {
        self.link_capacity[link]
    }

    /// Bytes delivered per link so far. Every link on a flow's route is
    /// credited, so per-link utilization is correct for two-hop routes;
    /// each route crosses exactly one server link, so summing over
    /// server links still counts every byte exactly once.
    pub fn link_bytes(&self) -> &[f64] {
        &self.link_bytes
    }

    /// Start a transfer over a single link. Returns its id.
    pub fn start_flow(&mut self, link: usize, tag: usize, bytes: u64, demand_bps: f64) -> FlowId {
        self.start_flow_routed(&[link], tag, bytes, demand_bps)
    }

    /// Start a transfer crossing every link in `route` (e.g. server
    /// uplink then cabinet uplink). Returns its id. The route is
    /// borrowed: it is interned on the flow's (route, demand) class, so
    /// starting a flow never allocates for an already-seen route.
    pub fn start_flow_routed(
        &mut self,
        route: &[usize],
        tag: usize,
        bytes: u64,
        demand_bps: f64,
    ) -> FlowId {
        assert!(!route.is_empty(), "a flow needs at least one link");
        for &link in route {
            assert!(link < self.link_capacity.len(), "unknown link {link}");
        }
        let id = self.next_flow_id;
        self.next_flow_id += 1;
        let (class, finish_service) = self.classes.join(route, demand_bps, id, bytes as f64);
        self.flows.insert(
            id,
            Flow { remaining: bytes as f64, demand_bps, tag, rate_bps: 0.0, class, finish_service },
        );
        self.flows_by_tag.entry(tag).or_default().push(id);
        self.dirty = true;
        id
    }

    /// Drop `id` from the per-tag index.
    fn detach_tag(&mut self, id: FlowId, tag: usize) {
        if let Some(ids) = self.flows_by_tag.get_mut(&tag) {
            if let Some(pos) = ids.iter().position(|&f| f == id) {
                ids.swap_remove(pos);
            }
        }
    }

    /// Byte-accounting correction for a cancelled flow. A cancelled flow
    /// keeps the bytes it actually moved; if the class advance credited
    /// past the flow's finish mark (its completion was pending at this
    /// very microsecond), claw the overshoot back. On the reference path
    /// class service never advances, so this is a no-op.
    fn settle_cancelled(&mut self, flow: &Flow) {
        let class = self.classes.get(flow.class);
        let over = class.service - flow.finish_service;
        if over > 0.0 {
            for &link in &class.route {
                self.link_bytes[link] -= over;
            }
        }
    }

    /// Cancel all flows tagged `tag`. O(k) in the number of flows with
    /// that tag, via the per-tag index.
    pub fn cancel_flows_tagged(&mut self, tag: usize) {
        let Some(ids) = self.flows_by_tag.remove(&tag) else {
            return;
        };
        for id in ids {
            let flow = self.flows.remove(&id).expect("tag index tracks live flows");
            self.settle_cancelled(&flow);
            self.classes.leave(flow.class);
        }
        self.dirty = true;
    }

    /// Arm a timer.
    pub fn start_timer(&mut self, tag: usize, delay: SimTime) {
        self.timers.arm(tag, self.now + delay);
    }

    /// Cancel every timer tagged `tag`. Marks the heap entries stale
    /// instead of rebuilding the queue.
    pub fn cancel_timers_tagged(&mut self, tag: usize) {
        self.timers.cancel_tag(tag);
    }

    /// Number of active flows.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Number of live (armed, unfired, uncancelled) timers.
    pub fn live_timers(&self) -> usize {
        self.timers.len()
    }

    /// Max-min fair allocation with demand caps over multi-link routes —
    /// the original per-flow algorithm, kept as the reference oracle.
    ///
    /// Progressive filling: repeatedly find the unfrozen flow whose
    /// feasible rate (min of its demand and an equal share of the
    /// residual capacity on every link it crosses) is smallest, freeze it
    /// there, and subtract it from all its links. O(F² · L).
    fn recompute_rates_ref(&mut self) {
        let mut residual = self.link_capacity.clone();
        let mut unfrozen_count = vec![0usize; residual.len()];
        for flow in self.flows.values() {
            for &link in &self.classes.get(flow.class).route {
                unfrozen_count[link] += 1;
            }
        }
        let mut unfrozen: Vec<FlowId> = self.flows.keys().copied().collect();
        while !unfrozen.is_empty() {
            // Feasible rate for each unfrozen flow.
            let (pos, rate) = unfrozen
                .iter()
                .enumerate()
                .map(|(pos, id)| {
                    let flow = &self.flows[id];
                    let share = self
                        .classes
                        .get(flow.class)
                        .route
                        .iter()
                        .map(|&link| residual[link] / unfrozen_count[link] as f64)
                        .fold(f64::INFINITY, f64::min);
                    (pos, flow.demand_bps.min(share))
                })
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("rates are finite"))
                .expect("non-empty");
            let id = unfrozen.swap_remove(pos);
            let flow = self.flows.get_mut(&id).expect("flow exists");
            flow.rate_bps = rate.max(0.0);
            let frozen = flow.rate_bps;
            for &link in &self.classes.get(flow.class).route {
                residual[link] = (residual[link] - frozen).max(0.0);
                unfrozen_count[link] -= 1;
            }
        }
        self.dirty = false;
    }

    /// Class-aggregated max-min allocation: the same progressive filling,
    /// but over (route, demand) equivalence classes. All members of a
    /// class get the same rate in a max-min allocation, so freezing a
    /// class at its per-member share is equivalent to freezing each
    /// member individually — at O(C² · L) instead of O(F² · L).
    fn recompute_rates_fast(&mut self) {
        let mut residual = self.link_capacity.clone();
        let mut member_count = vec![0usize; residual.len()];
        let mut unfrozen: Vec<ClassId> = Vec::new();
        for cid in self.classes.ordered_ids() {
            let class = self.classes.get(cid);
            if class.members == 0 {
                continue;
            }
            for &link in &class.route {
                member_count[link] += class.members;
            }
            unfrozen.push(cid);
        }
        while !unfrozen.is_empty() {
            // Feasible per-member rate for each unfrozen class.
            let (pos, rate) = unfrozen
                .iter()
                .enumerate()
                .map(|(pos, &cid)| {
                    let class = self.classes.get(cid);
                    let share = class
                        .route
                        .iter()
                        .map(|&link| residual[link] / member_count[link] as f64)
                        .fold(f64::INFINITY, f64::min);
                    (pos, class.demand_bps.min(share))
                })
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("rates are finite"))
                .expect("non-empty");
            let cid = unfrozen.swap_remove(pos);
            let class = self.classes.get_mut(cid);
            class.rate_bps = rate.max(0.0);
            let frozen_total = class.rate_bps * class.members as f64;
            for i in 0..class.route.len() {
                let link = class.route[i];
                residual[link] = (residual[link] - frozen_total).max(0.0);
                member_count[link] -= class.members;
            }
        }
        self.dirty = false;
    }

    /// Allocated rate of a flow (test hook).
    pub fn flow_rate(&mut self, id: FlowId) -> Option<f64> {
        if self.dirty {
            match self.mode {
                EngineMode::Fast => self.recompute_rates_fast(),
                EngineMode::Reference => self.recompute_rates_ref(),
            }
        }
        let flow = self.flows.get(&id)?;
        Some(match self.mode {
            EngineMode::Fast => self.classes.get(flow.class).rate_bps,
            EngineMode::Reference => flow.rate_bps,
        })
    }

    /// True while any flow is active or any timer is armed. An engine
    /// with work that still peeks `None` is starved (every flow rate is
    /// zero with no timer to change that); federated drivers use this
    /// to tell quiescence from a stall.
    pub fn has_work(&self) -> bool {
        !self.flows.is_empty() || !self.timers.is_empty()
    }

    /// Advance to the next event and return it. Advances the clock,
    /// credits delivered bytes, and removes finished flows/timers.
    pub fn step(&mut self) -> Wakeup {
        debug_assert_eq!(
            self.flows.len(),
            self.classes.live_members(),
            "class membership tracks the flow map"
        );
        match self.mode {
            EngineMode::Fast => self.step_fast(),
            EngineMode::Reference => self.step_ref(),
        }
    }

    /// Earliest pending flow completion and timer on the reference path.
    /// Recomputes rates if dirty; does not consume anything.
    #[allow(clippy::type_complexity)]
    fn next_ref(&mut self) -> (Option<(SimTime, FlowId)>, Option<(SimTime, u64, usize)>) {
        if self.dirty {
            self.recompute_rates_ref();
        }

        // Earliest flow completion (lowest id wins a timestamp tie, via
        // the BTreeMap's id-ordered iteration and the strict `<`).
        let mut flow_done: Option<(SimTime, FlowId)> = None;
        for (id, flow) in &self.flows {
            if flow.rate_bps <= 0.0 {
                continue; // stalled (server down) — only timers can fire
            }
            let dt = micros(flow.remaining / flow.rate_bps);
            let at = self.now + dt;
            if flow_done.is_none_or(|(t, _)| at < t) {
                flow_done = Some((at, *id));
            }
        }

        // Earliest timer (armed-first wins a timestamp tie).
        (flow_done, self.timers.earliest_scan())
    }

    /// The original per-flow scheduler: linear scan for the earliest
    /// completion, per-flow byte debit on every event.
    fn step_ref(&mut self) -> Wakeup {
        let (flow_done, timer) = self.next_ref();
        self.commit_ref(flow_done, timer)
    }

    /// Execute the event `next_ref` selected.
    fn commit_ref(
        &mut self,
        flow_done: Option<(SimTime, FlowId)>,
        timer: Option<(SimTime, u64, usize)>,
    ) -> Wakeup {
        let (advance_to, is_timer) = match (flow_done, timer) {
            (Some((ft, _)), Some((tt, _, _))) => {
                if tt <= ft {
                    (tt, true)
                } else {
                    (ft, false)
                }
            }
            (Some((ft, _)), None) => (ft, false),
            (None, Some((tt, _, _))) => (tt, true),
            (None, None) => return Wakeup::Idle,
        };

        // Debit all flows for the elapsed interval. Completion times are
        // quantized to whole microseconds, so clamp the transferred
        // amount to the flow's remaining bytes — otherwise the per-server
        // byte accounting would drift by up to rate × 0.5 µs per event.
        let dt_s = seconds(advance_to.saturating_sub(self.now));
        for flow in self.flows.values_mut() {
            let moved = (flow.rate_bps * dt_s).min(flow.remaining);
            flow.remaining -= moved;
            for &link in &self.classes.get(flow.class).route {
                self.link_bytes[link] += moved;
            }
        }
        self.now = advance_to;

        if is_timer {
            let (_, seq, tag) = timer.expect("checked above");
            self.timers.fire(seq);
            Wakeup::TimerFired { tag }
        } else {
            let (_, id) = flow_done.expect("checked above");
            let flow = self.flows.remove(&id).expect("flow exists");
            self.detach_tag(id, flow.tag);
            // Completion may land half a microsecond early after
            // rounding; credit the residue so bytes are conserved.
            for &link in &self.classes.get(flow.class).route {
                self.link_bytes[link] += flow.remaining;
            }
            self.classes.leave(flow.class);
            self.dirty = true;
            Wakeup::FlowDone { tag: flow.tag }
        }
    }

    /// Earliest pending flow completion and timer on the fast path.
    /// Recomputes rates if dirty and prunes stale heap heads — both
    /// idempotent — but does not consume anything.
    #[allow(clippy::type_complexity)]
    fn next_fast(&mut self) -> (Option<(SimTime, FlowId, ClassId)>, Option<(SimTime, u64, usize)>) {
        if self.dirty {
            self.recompute_rates_fast();
        }

        // Earliest flow completion: each class's earliest completer is
        // the head of its (finish mark, id) min-heap, after lazily
        // pruning marks left behind by cancelled flows. Lowest flow id
        // wins a timestamp tie across classes, matching the reference
        // path's scan order.
        let mut flow_done: Option<(SimTime, FlowId, ClassId)> = None;
        for cid in 0..self.classes.len() {
            while let Some(mark) = self.classes.head(cid) {
                if self.flows.contains_key(&mark.id) {
                    break;
                }
                self.classes.pop_head(cid);
            }
            let class = self.classes.get(cid);
            if class.members == 0 || class.rate_bps <= 0.0 {
                continue; // empty, or stalled (server down)
            }
            let Some(mark) = self.classes.head(cid) else {
                continue;
            };
            let rem = (mark.finish_service - class.service).max(0.0);
            let at = self.now + micros(rem / class.rate_bps);
            let better = match flow_done {
                None => true,
                Some((t, id, _)) => at < t || (at == t && mark.id < id),
            };
            if better {
                flow_done = Some((at, mark.id, cid));
            }
        }

        // Earliest timer (lazy heap; armed-first wins a timestamp tie).
        (flow_done, self.timers.peek_earliest())
    }

    /// Absolute virtual time of the next event (flow completion or
    /// timer), or `None` when the engine is idle — possibly with starved
    /// flows, which callers detect via [`Engine::active_flows`].
    ///
    /// This is the lookahead probe for the federated driver: a cabinet
    /// shard whose `peek_next_at` lies beyond the current conservative
    /// window can be skipped without stepping it. May recompute rates
    /// and prune stale heap heads; both are semantically idempotent, so
    /// interleaving peeks with [`Engine::step`] does not perturb the
    /// event sequence.
    pub fn peek_next_at(&mut self) -> Option<SimTime> {
        let (flow_at, timer_at) = match self.mode {
            EngineMode::Fast => {
                let (f, t) = self.next_fast();
                (f.map(|(at, _, _)| at), t.map(|(at, _, _)| at))
            }
            EngineMode::Reference => {
                let (f, t) = self.next_ref();
                (f.map(|(at, _)| at), t.map(|(at, _, _)| at))
            }
        };
        earlier(flow_at, timer_at)
    }

    /// Execute the next event only if it occurs strictly before `end`:
    /// `Ok(wakeup)` when an event ran, `Err(Some(at))` when the next
    /// event is at or past `end` (nothing executed), `Err(None)` when
    /// the engine is idle. This is the windowed driver's inner step —
    /// fused so the lookahead probe and the dispatch share one
    /// next-event computation instead of two.
    pub fn step_if_before(&mut self, end: SimTime) -> Result<Wakeup, Option<SimTime>> {
        match self.mode {
            EngineMode::Fast => {
                let (flow_done, timer) = self.next_fast();
                match earlier(flow_done.map(|f| f.0), timer.map(|t| t.0)) {
                    None => Err(None),
                    Some(at) if at >= end => Err(Some(at)),
                    Some(_) => Ok(self.commit_fast(flow_done, timer)),
                }
            }
            EngineMode::Reference => {
                let (flow_done, timer) = self.next_ref();
                match earlier(flow_done.map(|f| f.0), timer.map(|t| t.0)) {
                    None => Err(None),
                    Some(at) if at >= end => Err(Some(at)),
                    Some(_) => Ok(self.commit_ref(flow_done, timer)),
                }
            }
        }
    }

    /// The fast scheduler: per-class completion heads, O(C) service
    /// advance, lazy-deletion timer heap.
    fn step_fast(&mut self) -> Wakeup {
        let (flow_done, timer) = self.next_fast();
        self.commit_fast(flow_done, timer)
    }

    /// Execute the event `next_fast` selected.
    fn commit_fast(
        &mut self,
        flow_done: Option<(SimTime, FlowId, ClassId)>,
        timer: Option<(SimTime, u64, usize)>,
    ) -> Wakeup {
        let (advance_to, is_timer) = match (flow_done, timer) {
            (Some((ft, _, _)), Some((tt, _, _))) => {
                if tt <= ft {
                    (tt, true)
                } else {
                    (ft, false)
                }
            }
            (Some((ft, _, _)), None) => (ft, false),
            (None, Some((tt, _, _))) => (tt, true),
            (None, None) => return Wakeup::Idle,
        };

        // Advance class service clocks and per-link delivered bytes for
        // the interval — O(C · L), not O(F).
        let dt_s = seconds(advance_to.saturating_sub(self.now));
        if dt_s > 0.0 {
            self.classes.advance(dt_s, &mut self.link_bytes);
        }
        self.now = advance_to;

        if is_timer {
            let (_, seq, tag) = timer.expect("checked above");
            self.timers.fire(seq);
            Wakeup::TimerFired { tag }
        } else {
            let (_, id, cid) = flow_done.expect("checked above");
            self.classes.pop_head(cid);
            let flow = self.flows.remove(&id).expect("flow exists");
            self.detach_tag(id, flow.tag);
            // Exact byte settlement: over the flow's lifetime the class
            // advance credited (service_now − service_at_join); the
            // flow's true size is (finish − service_at_join). The
            // difference settles both the sub-microsecond rounding
            // residue (positive) and any completion-tie overshoot
            // (negative).
            let class = self.classes.get(cid);
            let settle = flow.finish_service - class.service;
            for &link in &class.route {
                self.link_bytes[link] += settle;
            }
            self.classes.leave(cid);
            self.dirty = true;
            Wakeup::FlowDone { tag: flow.tag }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: f64 = 1e6;

    /// Run a scenario under both schedulers.
    fn both_modes(caps: Vec<f64>, scenario: impl Fn(&mut Engine)) {
        for mode in [EngineMode::Fast, EngineMode::Reference] {
            let mut engine = Engine::new_with_mode(caps.clone(), mode);
            scenario(&mut engine);
        }
    }

    /// A live flow's allocated rate, with the scenario named in the
    /// panic message so a failing sweep is diagnosable at a glance.
    fn rate(engine: &mut Engine, id: FlowId, scenario: &str) -> f64 {
        engine.flow_rate(id).unwrap_or_else(|| panic!("{scenario}: flow {id} should still be live"))
    }

    #[test]
    fn single_flow_runs_at_demand_cap() {
        both_modes(vec![8.5 * MB], |engine| {
            let id = engine.start_flow(0, 7, 8_000_000, 8.0 * MB);
            assert!((rate(engine, id, "single flow at demand cap") - 8.0 * MB).abs() < 1.0);
            let wakeup = engine.step();
            assert_eq!(wakeup, Wakeup::FlowDone { tag: 7 });
            assert!((seconds(engine.now()) - 1.0).abs() < 1e-3);
        });
    }

    #[test]
    fn two_flows_split_server_capacity() {
        both_modes(vec![8.0 * MB], |engine| {
            let a = engine.start_flow(0, 1, 1_000_000, 8.0 * MB);
            let b = engine.start_flow(0, 2, 1_000_000, 8.0 * MB);
            assert!((rate(engine, a, "two flows split capacity") - 4.0 * MB).abs() < 1.0);
            assert!((rate(engine, b, "two flows split capacity") - 4.0 * MB).abs() < 1.0);
        });
    }

    #[test]
    fn low_demand_flow_leaves_capacity_for_others() {
        // Max-min: a 1 MB/s-capped flow frees the rest for the hungry one.
        both_modes(vec![8.0 * MB], |engine| {
            let slow = engine.start_flow(0, 1, 1_000_000, 1.0 * MB);
            let fast = engine.start_flow(0, 2, 1_000_000, 12.0 * MB);
            assert!((rate(engine, slow, "low-demand flow leaves capacity") - 1.0 * MB).abs() < 1.0);
            assert!((rate(engine, fast, "low-demand flow leaves capacity") - 7.0 * MB).abs() < 1.0);
        });
    }

    #[test]
    fn servers_are_independent() {
        both_modes(vec![8.0 * MB, 8.0 * MB], |engine| {
            let a = engine.start_flow(0, 1, 1_000_000, 10.0 * MB);
            let b = engine.start_flow(1, 2, 1_000_000, 10.0 * MB);
            assert!((rate(engine, a, "independent servers") - 8.0 * MB).abs() < 1.0);
            assert!((rate(engine, b, "independent servers") - 8.0 * MB).abs() < 1.0);
        });
    }

    #[test]
    fn completion_order_respects_sizes() {
        both_modes(vec![10.0 * MB], |engine| {
            engine.start_flow(0, 1, 1_000_000, 10.0 * MB);
            engine.start_flow(0, 2, 9_000_000, 10.0 * MB);
            // Both run at 5 MB/s; flow 1 (1 MB) finishes at t=0.2 s.
            assert_eq!(engine.step(), Wakeup::FlowDone { tag: 1 });
            assert!((seconds(engine.now()) - 0.2).abs() < 1e-3);
            // Flow 2 has 8 MB left, now alone at 10 MB/s → +0.8 s.
            assert_eq!(engine.step(), Wakeup::FlowDone { tag: 2 });
            assert!((seconds(engine.now()) - 1.0).abs() < 1e-3);
        });
    }

    #[test]
    fn timers_interleave_with_flows() {
        both_modes(vec![10.0 * MB], |engine| {
            engine.start_flow(0, 1, 10_000_000, 10.0 * MB); // done at t=1s
            engine.start_timer(9, micros(0.5));
            assert_eq!(engine.step(), Wakeup::TimerFired { tag: 9 });
            assert_eq!(engine.step(), Wakeup::FlowDone { tag: 1 });
            assert!((seconds(engine.now()) - 1.0).abs() < 1e-3);
        });
    }

    #[test]
    fn server_failure_stalls_flows_but_not_timers() {
        both_modes(vec![10.0 * MB], |engine| {
            engine.start_flow(0, 1, 10_000_000, 10.0 * MB);
            engine.set_link_capacity(0, 0.0);
            engine.start_timer(2, micros(3.0));
            // The only runnable event is the timer.
            assert_eq!(engine.step(), Wakeup::TimerFired { tag: 2 });
            assert!((seconds(engine.now()) - 3.0).abs() < 1e-3);
            // Restore the server: the flow completes 1 s later.
            engine.set_link_capacity(0, 10.0 * MB);
            assert_eq!(engine.step(), Wakeup::FlowDone { tag: 1 });
            assert!((seconds(engine.now()) - 4.0).abs() < 1e-3);
        });
    }

    #[test]
    fn idle_when_empty() {
        both_modes(vec![1.0], |engine| {
            assert_eq!(engine.step(), Wakeup::Idle);
        });
    }

    #[test]
    fn byte_accounting_conserves() {
        both_modes(vec![5.0 * MB], |engine| {
            engine.start_flow(0, 1, 2_000_000, 10.0 * MB);
            engine.start_flow(0, 2, 3_000_000, 10.0 * MB);
            while engine.step() != Wakeup::Idle {}
            assert!((engine.link_bytes()[0] - 5_000_000.0).abs() < 1.0);
        });
    }

    #[test]
    fn two_link_flow_limited_by_tighter_link() {
        both_modes(vec![10.0 * MB], |engine| {
            let cabinet = engine.add_link(3.0 * MB);
            let id = engine.start_flow_routed(&[0, cabinet], 1, 3_000_000, 8.0 * MB);
            assert!((rate(engine, id, "two-link flow tight-link cap") - 3.0 * MB).abs() < 1.0);
            engine.step();
            assert!((seconds(engine.now()) - 1.0).abs() < 1e-3);
        });
    }

    #[test]
    fn multi_hop_flow_credits_every_route_link() {
        // Regression: bytes used to be credited only to route[0], so
        // cabinet-uplink utilization always read zero.
        both_modes(vec![10.0 * MB], |engine| {
            let cabinet = engine.add_link(3.0 * MB);
            engine.start_flow_routed(&[0, cabinet], 1, 3_000_000, 8.0 * MB);
            while engine.step() != Wakeup::Idle {}
            assert!((engine.link_bytes()[0] - 3_000_000.0).abs() < 1.0, "server link");
            assert!((engine.link_bytes()[cabinet] - 3_000_000.0).abs() < 1.0, "cabinet link");
        });
    }

    #[test]
    fn cabinet_contention_is_local() {
        // Two cabinets behind 4 MB/s uplinks, one 10 MB/s server. Three
        // flows in cabinet A share its uplink; the lone flow in cabinet B
        // gets its full uplink (server has room for all).
        both_modes(vec![10.0 * MB], |engine| {
            let cab_a = engine.add_link(4.0 * MB);
            let cab_b = engine.add_link(4.0 * MB);
            let a: Vec<_> = (0..3)
                .map(|i| engine.start_flow_routed(&[0, cab_a], i, 1_000_000, 8.0 * MB))
                .collect();
            let b = engine.start_flow_routed(&[0, cab_b], 9, 1_000_000, 8.0 * MB);
            for id in &a {
                assert!(
                    (rate(engine, *id, "cabinet-local contention") - 4.0 * MB / 3.0).abs() < 1.0
                );
            }
            assert!((rate(engine, b, "cabinet-local contention") - 4.0 * MB).abs() < 1.0);
        });
    }

    #[test]
    fn max_min_gives_leftover_to_unconstrained_flows() {
        // One flow throttled by a 1 MB/s cabinet; the other, direct flow
        // soaks up the server's remaining capacity.
        both_modes(vec![10.0 * MB], |engine| {
            let slow_cab = engine.add_link(1.0 * MB);
            let slow = engine.start_flow_routed(&[0, slow_cab], 1, 1_000_000, 8.0 * MB);
            let fast = engine.start_flow(0, 2, 1_000_000, 12.0 * MB);
            assert!((rate(engine, slow, "max-min leftover") - 1.0 * MB).abs() < 1.0);
            assert!((rate(engine, fast, "max-min leftover") - 9.0 * MB).abs() < 1.0);
        });
    }

    #[test]
    fn fairness_conservation_property() {
        // Sum of allocated rates never exceeds capacity; each flow never
        // exceeds its demand.
        both_modes(vec![7.0 * MB], |engine| {
            let ids: Vec<_> = (0..13)
                .map(|i| engine.start_flow(0, i, 1_000_000, (1 + i as u64) as f64 * 0.4 * MB))
                .collect();
            let rates: Vec<f64> =
                ids.iter().map(|id| rate(engine, *id, "fairness conservation")).collect();
            let total: f64 = rates.iter().sum();
            assert!(total <= 7.0 * MB + 1.0, "total {total}");
            for (i, r) in rates.iter().enumerate() {
                assert!(*r <= (1 + i as u64) as f64 * 0.4 * MB + 1.0);
            }
        });
    }

    #[test]
    fn identical_flows_share_one_class() {
        let mut engine = Engine::new(vec![8.0 * MB]);
        for i in 0..100 {
            engine.start_flow(0, i, 1_000_000, 8.0 * MB);
        }
        assert_eq!(engine.classes.len(), 1);
        engine.start_flow(0, 100, 1_000_000, 2.0 * MB); // different demand
        assert_eq!(engine.classes.len(), 2);
    }

    #[test]
    fn cancel_tagged_flows_uses_index() {
        both_modes(vec![10.0 * MB], |engine| {
            engine.start_flow(0, 1, 1_000_000, 10.0 * MB);
            engine.start_flow(0, 1, 2_000_000, 10.0 * MB);
            let keep = engine.start_flow(0, 2, 1_000_000, 10.0 * MB);
            engine.cancel_flows_tagged(1);
            assert_eq!(engine.active_flows(), 1);
            assert!((rate(engine, keep, "survivor after tagged cancel") - 10.0 * MB).abs() < 1.0);
        });
    }

    #[test]
    fn stalled_engine_reports_idle_with_active_flows() {
        both_modes(vec![10.0 * MB], |engine| {
            engine.start_flow(0, 1, 1_000_000, 10.0 * MB);
            engine.set_link_capacity(0, 0.0);
            // No timers armed: the engine can only report Idle, and the
            // caller can detect the stall via active_flows().
            assert_eq!(engine.step(), Wakeup::Idle);
            assert_eq!(engine.active_flows(), 1);
        });
    }

    #[test]
    fn fast_and_ref_agree_on_interleaved_scenario() {
        // A compact end-to-end cross-check: two demand classes, a cabinet
        // route, timers landing mid-transfer, and a tagged cancellation.
        let run = |mode: EngineMode| {
            let mut engine = Engine::new_with_mode(vec![10.0 * MB, 6.0 * MB], mode);
            let cab = engine.add_link(2.5 * MB);
            engine.start_flow(0, 1, 4_000_000, 8.0 * MB);
            engine.start_flow(0, 2, 4_000_000, 8.0 * MB);
            engine.start_flow(0, 3, 1_000_000, 1.0 * MB);
            engine.start_flow_routed(&[1, cab], 4, 3_000_000, 8.0 * MB);
            engine.start_timer(9, micros(0.25));
            engine.start_timer(8, micros(0.25));
            let mut events = Vec::new();
            loop {
                match engine.step() {
                    Wakeup::Idle => break,
                    Wakeup::TimerFired { tag: 9 } => {
                        engine.cancel_flows_tagged(2);
                        engine.start_flow(0, 5, 2_000_000, 8.0 * MB);
                        events.push(("timer", 9, engine.now()));
                    }
                    Wakeup::TimerFired { tag } => events.push(("timer", tag, engine.now())),
                    Wakeup::FlowDone { tag } => events.push(("flow", tag, engine.now())),
                }
            }
            (events, engine.link_bytes().to_vec())
        };
        let (fast_events, fast_bytes) = run(EngineMode::Fast);
        let (ref_events, ref_bytes) = run(EngineMode::Reference);
        assert_eq!(fast_events, ref_events);
        for (f, r) in fast_bytes.iter().zip(&ref_bytes) {
            assert!((f - r).abs() < 4.0, "fast {f} vs ref {r}");
        }
    }
}
