//! The multi-tier package distribution fabric above the cabinets.
//!
//! §6.2 of the paper describes a hierarchical distribution scheme
//! (vendor → NPACI → campus → department); mapped onto a very large
//! cluster this becomes: one *root* mirror feeds per-*campus*
//! distribution servers, each campus feeds the caching *proxies* of its
//! cabinets, and each proxy serves its own 64-odd nodes. A cacheable
//! package byte-range crosses each uplink **once**: the first node in a
//! cabinet to ask for a package triggers a cabinet fill from the
//! campus, the first cabinet in a campus triggers a campus fill from
//! the root, and everyone else is served from the nearest cache.
//! Per-node kickstart files are generated at the campus frontend and
//! are never cacheable, so each request costs one cabinet fill.
//!
//! This module owns the two upper tiers (root and campus engines) plus
//! the per-cabinet proxy cache bookkeeping; [`crate::shard`] owns the
//! per-cabinet sub-simulators and couples them to this fabric through
//! [`MissRequest`]s flowing up and [`FillDone`]s flowing down. Fills
//! are serialized per entity — one in-flight fill per cabinet at its
//! campus, one per campus at the root — so each tier engine sees a
//! handful of (route, demand) classes regardless of cluster size.
//!
//! Every hop adds [`TierConfig::fill_latency_s`] of store-and-forward
//! delay. That latency is also the conservative synchronization window
//! of the federated engine: a fill completing at time `t` cannot affect
//! a cabinet before `t + latency`, which is what lets the cabinets run
//! a whole window ahead without ever seeing an event out of order.

use crate::config::{SimConfig, TierConfig};
use crate::engine::{micros, Engine, SimTime, Wakeup};
use std::collections::VecDeque;

/// A cache miss escalated from a cabinet proxy to its campus server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MissRequest {
    /// Virtual time the node's request reached the proxy.
    pub at: SimTime,
    /// Cabinet (shard) the request came from.
    pub cabinet: usize,
    /// Target index: `0..P` are packages, `P` is the kickstart CGI.
    pub target: usize,
}

/// A completed cabinet fill, ready for delivery to its shard after the
/// store-and-forward latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FillDone {
    /// Virtual time the fill finished arriving at the cabinet proxy.
    pub at: SimTime,
    /// Destination cabinet.
    pub cabinet: usize,
    /// Target index (same space as [`MissRequest::target`]).
    pub target: usize,
}

/// Per-cabinet proxy cache state and counters. Owned by the cabinet's
/// shard (only the shard writes it); the tier network only sees the
/// [`MissRequest`]s it emits.
#[derive(Debug)]
pub(crate) struct ProxyCache {
    /// Whether each target's bytes are held locally. The kickstart slot
    /// stays `false` forever — per-node CGI output is uncacheable.
    cached: Vec<bool>,
    /// Whether a fill for the target is already in flight upstream
    /// (suppresses duplicate [`MissRequest`]s for cacheable targets).
    requested: Vec<bool>,
    /// Node tags parked on each target, FIFO.
    waiters: Vec<VecDeque<usize>>,
    /// Reverse map: which target a parked tag waits on.
    waiting_of: std::collections::HashMap<usize, usize>,
    /// Requests answered from the local cache.
    pub hits: u64,
    /// Requests that had to wait on an upstream fill.
    pub misses: u64,
    /// Bytes served straight from cache.
    pub hit_bytes: u64,
    /// Bytes that crossed (or joined a crossing of) the cabinet uplink.
    pub miss_bytes: u64,
    /// Fills delivered from the campus tier.
    pub fills: u64,
    /// Bytes those fills carried.
    pub fill_bytes: u64,
}

impl ProxyCache {
    /// A cold cache over `n_targets` targets (packages + kickstart).
    pub(crate) fn new(n_targets: usize) -> ProxyCache {
        ProxyCache {
            cached: vec![false; n_targets],
            requested: vec![false; n_targets],
            waiters: vec![VecDeque::new(); n_targets],
            waiting_of: std::collections::HashMap::new(),
            hits: 0,
            misses: 0,
            hit_bytes: 0,
            miss_bytes: 0,
            fills: 0,
            fill_bytes: 0,
        }
    }

    /// Whether `target`'s bytes are in the cache.
    pub(crate) fn is_cached(&self, target: usize) -> bool {
        self.cached[target]
    }

    /// Whether a fill for `target` is already in flight.
    pub(crate) fn is_requested(&self, target: usize) -> bool {
        self.requested[target]
    }

    /// Mark a fill in flight for `target`.
    pub(crate) fn mark_requested(&mut self, target: usize) {
        self.requested[target] = true;
    }

    /// Park node `tag` until `target`'s fill lands.
    pub(crate) fn park(&mut self, tag: usize, target: usize) {
        self.waiters[target].push_back(tag);
        self.waiting_of.insert(tag, target);
    }

    /// Drop `tag`'s parked wait, if any (power cycle, hang, or watchdog
    /// timeout while waiting on a fill).
    pub(crate) fn unpark(&mut self, tag: usize) {
        if let Some(target) = self.waiting_of.remove(&tag) {
            if let Some(pos) = self.waiters[target].iter().position(|&t| t == tag) {
                self.waiters[target].remove(pos);
            }
        }
    }

    /// A fill for `target` landed: for cacheable targets the cache now
    /// holds the bytes and every waiter is released; for the kickstart
    /// only the *first* waiter is released (each request was its own
    /// fill). Returns the released tags in FIFO order.
    pub(crate) fn fill_landed(&mut self, target: usize, kickstart: usize) -> Vec<usize> {
        let released: Vec<usize> = if target == kickstart {
            self.waiters[target].pop_front().into_iter().collect()
        } else {
            self.cached[target] = true;
            self.requested[target] = false;
            self.waiters[target].drain(..).collect()
        };
        for tag in &released {
            self.waiting_of.remove(tag);
        }
        released
    }

    /// How many node requests are parked on fills.
    pub(crate) fn parked(&self) -> usize {
        self.waiting_of.len()
    }
}

/// Aggregate cache behaviour of one federated run, summed across every
/// cabinet proxy and tier server. Counter pairs reconcile with the
/// engines' byte ledgers: `proxy_hit_bytes + proxy_miss_bytes` equals
/// the bytes that left the proxies' serve links, and `proxy_fill_bytes`
/// equals the bytes the campus servers delivered downstream.
#[derive(Debug, Clone, PartialEq)]
pub struct TierReport {
    /// Cabinets (= shards) in the federation.
    pub n_cabinets: usize,
    /// Campus distribution servers.
    pub n_campuses: usize,
    /// Node requests answered from a cabinet proxy's cache.
    pub proxy_hits: u64,
    /// Node requests that waited on an upstream fill.
    pub proxy_misses: u64,
    /// Bytes served straight from proxy caches.
    pub proxy_hit_bytes: u64,
    /// Bytes that waited on (or joined) a cabinet fill.
    pub proxy_miss_bytes: u64,
    /// Fills delivered into cabinet proxies.
    pub proxy_fills: u64,
    /// Bytes those fills carried (proxy-side count).
    pub proxy_fill_bytes: u64,
    /// Bytes the proxies' serve links delivered to nodes (engine ledger).
    pub proxy_serve_bytes: f64,
    /// Cabinet misses answered from a campus cache (or locally-generated
    /// kickstarts).
    pub campus_hits: u64,
    /// Cabinet misses escalated to the root mirror.
    pub campus_misses: u64,
    /// Bytes delivered campus → cabinet (engine ledger).
    pub cabinet_fill_bytes: f64,
    /// Bytes delivered root → campus (engine ledger) — the only traffic
    /// that leaves the top of the hierarchy.
    pub root_fill_bytes: f64,
}

/// A queued fill at a tier server: start no earlier than `at`, for
/// `target`.
type PendingFill = (SimTime, usize);

/// The root + campus tiers: one engine per serving entity, coupled to
/// the cabinets through miss requests and fill completions.
#[derive(Debug)]
pub(crate) struct TierNet {
    tiers: TierConfig,
    /// Bytes per target (`0..P` packages, `P` kickstart).
    target_bytes: Vec<u64>,
    /// The kickstart's target index (`packages.len()`).
    kick_id: usize,
    n_campuses: usize,
    /// Engine 0: the root mirror (one link). Engines `1..` are the
    /// campus servers (one link each).
    root: Engine,
    campus: Vec<Engine>,
    /// Cached per-engine next-event time (`root` first); `None` when the
    /// engine is quiet, recomputed lazily via `dirty`.
    next_cache: Vec<Option<SimTime>>,
    dirty: Vec<bool>,
    /// Per-campus cache state. The kickstart is born cached (the campus
    /// frontend generates it).
    campus_cached: Vec<Vec<bool>>,
    campus_requested: Vec<Vec<bool>>,
    /// Cabinets parked on each campus fill.
    campus_waiters: Vec<Vec<Vec<usize>>>,
    /// Per-cabinet fill FIFO at its campus server, plus the in-flight
    /// target. One fill in flight per cabinet keeps the campus engine's
    /// class count independent of cabinet count.
    cab_queue: Vec<VecDeque<PendingFill>>,
    cab_busy: Vec<bool>,
    cab_current: Vec<usize>,
    /// Same serialization for campus fills at the root.
    campus_queue: Vec<VecDeque<PendingFill>>,
    campus_busy: Vec<bool>,
    campus_current: Vec<usize>,
    /// Campus-tier counters (cabinet requests answered from the campus
    /// cache vs escalated to the root).
    pub campus_hits: u64,
    /// Cabinet requests that had to cross (or join a crossing of) the
    /// campus uplink to the root.
    pub campus_misses: u64,
    /// Events processed across the tier engines.
    pub events: u64,
}

impl TierNet {
    /// Build the fabric for `n_cabinets` cabinets under `tiers`.
    pub(crate) fn new(cfg: &SimConfig, tiers: TierConfig, n_cabinets: usize) -> TierNet {
        let mut target_bytes: Vec<u64> = cfg.packages.iter().map(|p| p.transfer_bytes).collect();
        let kick_id = target_bytes.len();
        target_bytes.push(cfg.kickstart_bytes);
        let n_targets = target_bytes.len();
        let n_campuses = n_cabinets.div_ceil(tiers.cabinets_per_campus);
        let campus: Vec<Engine> =
            (0..n_campuses).map(|_| Engine::new(vec![tiers.campus_serve_bps])).collect();
        let campus_cached = (0..n_campuses)
            .map(|_| {
                let mut cached = vec![false; n_targets];
                cached[kick_id] = true; // generated locally, always "held"
                cached
            })
            .collect();
        TierNet {
            tiers,
            target_bytes,
            kick_id,
            n_campuses,
            root: Engine::new(vec![tiers.root_bps]),
            campus,
            next_cache: vec![None; 1 + n_campuses],
            dirty: vec![false; 1 + n_campuses],
            campus_cached,
            campus_requested: vec![vec![false; n_targets]; n_campuses],
            campus_waiters: vec![vec![Vec::new(); n_targets]; n_campuses],
            cab_queue: vec![VecDeque::new(); n_cabinets],
            cab_busy: vec![false; n_cabinets],
            cab_current: vec![0; n_cabinets],
            campus_queue: vec![VecDeque::new(); n_campuses],
            campus_busy: vec![false; n_campuses],
            campus_current: vec![0; n_campuses],
            campus_hits: 0,
            campus_misses: 0,
            events: 0,
        }
    }

    /// Campus distribution servers in the fabric.
    pub(crate) fn n_campuses(&self) -> usize {
        self.n_campuses
    }

    /// Bytes the root mirror has delivered (the only traffic that
    /// leaves the top of the hierarchy).
    pub(crate) fn root_fill_bytes(&self) -> f64 {
        self.root.link_bytes()[0]
    }

    /// Bytes delivered campus → cabinet, summed over campus servers.
    pub(crate) fn cabinet_fill_bytes(&self) -> f64 {
        self.campus.iter().map(|e| e.link_bytes()[0]).sum()
    }

    /// Earliest pending event across the tier engines, if any.
    pub(crate) fn next_event_at(&mut self) -> Option<SimTime> {
        self.refresh_caches();
        self.next_cache.iter().flatten().min().copied()
    }

    /// Whether any tier engine still holds flows, timers, or queued
    /// fills — used for the end-of-run stall check.
    pub(crate) fn busy(&self) -> bool {
        self.root.has_work()
            || self.campus.iter().any(Engine::has_work)
            || self.cab_queue.iter().any(|q| !q.is_empty())
            || self.campus_queue.iter().any(|q| !q.is_empty())
    }

    fn refresh_caches(&mut self) {
        for e in 0..self.next_cache.len() {
            if self.dirty[e] {
                self.next_cache[e] = if e == 0 {
                    self.root.peek_next_at()
                } else {
                    self.campus[e - 1].peek_next_at()
                };
                self.dirty[e] = false;
            }
        }
    }

    fn campus_of(&self, cabinet: usize) -> usize {
        self.tiers.campus_of(cabinet)
    }

    /// Absorb a batch of cabinet misses (already sorted by `(at,
    /// cabinet)` for determinism). Kickstarts and campus-cached targets
    /// become cabinet fills; anything else parks the cabinet behind a
    /// (possibly already in-flight) campus fill from the root.
    pub(crate) fn inject(&mut self, requests: &[MissRequest]) {
        for req in requests {
            let m = self.campus_of(req.cabinet);
            let t = req.target;
            if t == self.kick_id || self.campus_cached[m][t] {
                self.campus_hits += 1;
                self.enqueue_cabinet_fill(req.cabinet, req.at, t);
            } else {
                self.campus_misses += 1;
                debug_assert!(
                    !self.campus_waiters[m][t].contains(&req.cabinet),
                    "proxy gating must deduplicate cabinet misses"
                );
                self.campus_waiters[m][t].push(req.cabinet);
                if !self.campus_requested[m][t] {
                    self.campus_requested[m][t] = true;
                    self.enqueue_campus_fill(m, req.at, t);
                }
            }
        }
    }

    /// Queue a cabinet fill starting no earlier than `at`; arms the
    /// start timer when the cabinet's service slot is idle.
    fn enqueue_cabinet_fill(&mut self, cabinet: usize, at: SimTime, target: usize) {
        let m = self.campus_of(cabinet);
        self.cab_queue[cabinet].push_back((at, target));
        if !self.cab_busy[cabinet] {
            self.cab_busy[cabinet] = true;
            let delay = at.saturating_sub(self.campus[m].now());
            self.campus[m].start_timer(cabinet, delay);
            self.dirty[1 + m] = true;
        }
    }

    fn enqueue_campus_fill(&mut self, campus: usize, at: SimTime, target: usize) {
        self.campus_queue[campus].push_back((at, target));
        if !self.campus_busy[campus] {
            self.campus_busy[campus] = true;
            let delay = at.saturating_sub(self.root.now());
            self.root.start_timer(campus, delay);
            self.dirty[0] = true;
        }
    }

    /// Start the head of a cabinet's fill queue as a flow on its campus
    /// engine.
    fn start_cabinet_fill(&mut self, cabinet: usize) {
        let m = self.campus_of(cabinet);
        let (_, target) = self.cab_queue[cabinet].pop_front().expect("queue gated by cab_busy");
        self.cab_current[cabinet] = target;
        let bytes = self.target_bytes[target];
        self.campus[m].start_flow(0, cabinet, bytes, self.tiers.cabinet_uplink_bps);
        self.dirty[1 + m] = true;
    }

    fn start_campus_fill(&mut self, campus: usize) {
        let (_, target) =
            self.campus_queue[campus].pop_front().expect("queue gated by campus_busy");
        self.campus_current[campus] = target;
        let bytes = self.target_bytes[target];
        self.root.start_flow(0, campus, bytes, self.tiers.campus_uplink_bps);
        self.dirty[0] = true;
    }

    /// After a fill finished for `cabinet`, start the next queued one —
    /// directly if its request time has passed, else via a start timer.
    fn chain_cabinet(&mut self, cabinet: usize) {
        let m = self.campus_of(cabinet);
        match self.cab_queue[cabinet].front().copied() {
            None => self.cab_busy[cabinet] = false,
            Some((at, _)) => {
                let now = self.campus[m].now();
                if at <= now {
                    self.start_cabinet_fill(cabinet);
                } else {
                    self.campus[m].start_timer(cabinet, at - now);
                    self.dirty[1 + m] = true;
                }
            }
        }
    }

    fn chain_campus(&mut self, campus: usize) {
        match self.campus_queue[campus].front().copied() {
            None => self.campus_busy[campus] = false,
            Some((at, _)) => {
                let now = self.root.now();
                if at <= now {
                    self.start_campus_fill(campus);
                } else {
                    self.root.start_timer(campus, at - now);
                    self.dirty[0] = true;
                }
            }
        }
    }

    /// Run every tier engine up to (and including) `until`, multiplexed
    /// in global time order — ties go to the lowest engine index (root
    /// first), deterministically. Completed cabinet fills are appended
    /// to `out`.
    pub(crate) fn advance_to(&mut self, until: SimTime, out: &mut Vec<FillDone>) {
        loop {
            self.refresh_caches();
            let mut best: Option<(SimTime, usize)> = None;
            for (e, at) in self.next_cache.iter().enumerate() {
                if let Some(at) = at {
                    if best.is_none_or(|(bat, _)| *at < bat) {
                        best = Some((*at, e));
                    }
                }
            }
            let Some((at, e)) = best else { break };
            if at > until {
                break;
            }
            self.events += 1;
            self.dirty[e] = true;
            if e == 0 {
                match self.root.step() {
                    Wakeup::Idle => {}
                    Wakeup::TimerFired { tag } => self.start_campus_fill(tag),
                    Wakeup::FlowDone { tag } => {
                        let m = tag;
                        let target = self.campus_current[m];
                        self.campus_cached[m][target] = true;
                        self.campus_requested[m][target] = false;
                        // Waiting cabinets are served after one
                        // store-and-forward latency.
                        let serve_at = self.root.now() + micros(self.tiers.fill_latency_s);
                        let waiting = std::mem::take(&mut self.campus_waiters[m][target]);
                        for cabinet in waiting {
                            self.enqueue_cabinet_fill(cabinet, serve_at, target);
                        }
                        self.chain_campus(m);
                    }
                }
            } else {
                let m = e - 1;
                match self.campus[m].step() {
                    Wakeup::Idle => {}
                    Wakeup::TimerFired { tag } => self.start_cabinet_fill(tag),
                    Wakeup::FlowDone { tag } => {
                        let cabinet = tag;
                        let target = self.cab_current[cabinet];
                        out.push(FillDone { at: self.campus[m].now(), cabinet, target });
                        self.chain_cabinet(cabinet);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_tiers() -> TierConfig {
        TierConfig { cabinet_size: 4, cabinets_per_campus: 2, ..TierConfig::standard() }
    }

    fn tiny_cfg() -> SimConfig {
        SimConfig::paper_testbed(1).bundled(3)
    }

    fn drain(net: &mut TierNet) -> Vec<FillDone> {
        let mut out = Vec::new();
        net.advance_to(SimTime::MAX, &mut out);
        out
    }

    #[test]
    fn first_miss_fills_from_root_then_caches_at_campus() {
        let cfg = tiny_cfg();
        let mut net = TierNet::new(&cfg, tiny_tiers(), 4);
        // Cabinet 0 misses package 0 → campus 0 must pull it from root.
        net.inject(&[MissRequest { at: 0, cabinet: 0, target: 0 }]);
        let fills = drain(&mut net);
        assert_eq!(fills.len(), 1);
        assert_eq!((fills[0].cabinet, fills[0].target), (0, 0));
        assert_eq!(net.campus_misses, 1);
        let pkg = net.target_bytes[0] as f64;
        assert!((net.root_fill_bytes() - pkg).abs() < 16.0);

        // Cabinet 1 (same campus) now hits the campus cache: no new
        // root bytes.
        net.inject(&[MissRequest { at: net.next_probe(), cabinet: 1, target: 0 }]);
        let fills = drain(&mut net);
        assert_eq!(fills.len(), 1);
        assert_eq!(net.campus_hits, 1);
        assert!((net.root_fill_bytes() - pkg).abs() < 16.0, "root served the package once");
        assert!((net.cabinet_fill_bytes() - 2.0 * pkg).abs() < 32.0);
    }

    #[test]
    fn kickstarts_never_touch_the_root() {
        let cfg = tiny_cfg();
        let mut net = TierNet::new(&cfg, tiny_tiers(), 2);
        let kick = net.kick_id;
        net.inject(&[
            MissRequest { at: 0, cabinet: 0, target: kick },
            MissRequest { at: 0, cabinet: 0, target: kick },
        ]);
        let fills = drain(&mut net);
        // Two requests → two distinct cabinet fills, both from campus.
        assert_eq!(fills.len(), 2);
        assert_eq!(net.root_fill_bytes(), 0.0);
        let expect = 2.0 * cfg.kickstart_bytes as f64;
        assert!((net.cabinet_fill_bytes() - expect).abs() < 16.0);
    }

    #[test]
    fn concurrent_cabinet_misses_share_one_root_fill() {
        let cfg = tiny_cfg();
        let mut net = TierNet::new(&cfg, tiny_tiers(), 2);
        net.inject(&[
            MissRequest { at: 0, cabinet: 0, target: 1 },
            MissRequest { at: 0, cabinet: 1, target: 1 },
        ]);
        let fills = drain(&mut net);
        assert_eq!(fills.len(), 2, "both cabinets get the fill");
        assert_eq!(net.campus_misses, 2);
        let pkg = net.target_bytes[1] as f64;
        assert!((net.root_fill_bytes() - pkg).abs() < 16.0, "one root crossing");
        assert!((net.cabinet_fill_bytes() - 2.0 * pkg).abs() < 32.0);
    }

    #[test]
    fn fills_per_cabinet_are_serialized_fifo() {
        let cfg = tiny_cfg();
        let mut net = TierNet::new(&cfg, tiny_tiers(), 1);
        let kick = net.kick_id;
        net.inject(&[
            MissRequest { at: 0, cabinet: 0, target: kick },
            MissRequest { at: 1, cabinet: 0, target: 0 },
            MissRequest { at: 2, cabinet: 0, target: 1 },
        ]);
        let fills = drain(&mut net);
        let targets: Vec<usize> = fills.iter().map(|f| f.target).collect();
        assert_eq!(targets, vec![kick, 0, 1], "FIFO per cabinet");
        assert!(fills.windows(2).all(|w| w[0].at <= w[1].at));
    }

    impl TierNet {
        /// Test helper: a time safely after everything processed so far.
        fn next_probe(&self) -> SimTime {
            self.campus.iter().map(Engine::now).max().unwrap_or(0).max(self.root.now()) + 1
        }
    }
}
