//! The cabinet simulator and the federated engine built from it.
//!
//! A [`Shard`] is the one unit that steps a cabinet: an [`Engine`], the
//! nodes wired to it, a fault table, per-link base/degradation/down
//! state, and optionally a caching proxy. [`Shard::step`] runs one event
//! — a node wakeup, a fault, or a proxy fill — and says which. Two
//! drivers step it: [`ClusterSim`](crate::cluster::ClusterSim) holds one
//! proxy-less shard over the flat topology; [`FederatedSim`] holds one
//! shard per cabinet, because past ~10⁴ nodes a single event loop (and
//! the single thread driving it) is the bottleneck. Its shards couple to
//! the campus/root tiers of [`crate::tier`] only through cache-miss
//! requests flowing up and fill completions flowing down.
//!
//! Synchronization is conservative windowing. Every upward request is
//! answered no earlier than one store-and-forward latency `W`
//! ([`TierConfig::fill_latency_s`]) after the tier serves it, so a
//! shard that has run to time `end` can never receive an event before
//! `end` as long as every fill the tier completed before `end − W` has
//! already been delivered. The driver therefore repeats: pick `end =
//! (t_all / W + 1) · W` where `t_all` is the earliest pending event
//! anywhere (shards, tiers, undelivered fills); deliver completed fills
//! into shards as timers at `fill time + W` and run every shard to
//! `end` ([`Chunk::run_window`]); inject the batched miss requests into
//! the tier and advance it to `end`. That loop is [`run_windows`], used
//! by the serial and the threaded driver alike, and the window sequence
//! — hence every engine's event sequence — is a pure function of the
//! configuration, so runs are bit-identical regardless of worker thread
//! count.

use crate::cluster::{check_none_failed, Fault, ReinstallResult, CONTROL_TAG_BASE};
use crate::config::{SimConfig, TierConfig};
use crate::engine::{micros, Engine, EngineMode, SimError, SimTime, Wakeup};
use crate::node::{FetchBackend, FetchStart, FetchTarget, NodeEvent, NodeState, SimNode};
use crate::reinstall::ReinstallError;
use crate::tier::{FillDone, MissRequest, ProxyCache, TierNet, TierReport};
use rocks_trace::{Counter, Gauge, Tracer};
use std::sync::mpsc;

/// Engine tags at or above this value are fill-delivery timers; the
/// target index is `tag - FILL_TAG_BASE`. Sits above
/// [`CONTROL_TAG_BASE`] so the three tag spaces (nodes, control
/// events, fills) never collide.
const FILL_TAG_BASE: usize = 1 << 33;

/// The cabinet proxy as seen by its nodes' fetch path: cache hits are
/// served immediately from the shard's serve link; misses park the
/// node and (for cacheable targets, at most once) escalate upstream.
struct ProxyBroker<'a> {
    proxy: &'a mut ProxyCache,
    outbox: &'a mut Vec<MissRequest>,
    cabinet: usize,
    kick_id: usize,
}

impl FetchBackend for ProxyBroker<'_> {
    fn start_fetch(
        &mut self,
        engine: &mut Engine,
        tag: usize,
        route: &[usize],
        target: FetchTarget,
        bytes: u64,
        demand_bps: f64,
    ) -> FetchStart {
        let tid = match target {
            FetchTarget::Kickstart => self.kick_id,
            FetchTarget::Package(i) => i,
        };
        if self.proxy.is_cached(tid) {
            self.proxy.hits += 1;
            self.proxy.hit_bytes += bytes;
            engine.start_flow_routed(route, tag, bytes, demand_bps);
            FetchStart::Started
        } else {
            self.proxy.misses += 1;
            self.proxy.miss_bytes += bytes;
            self.proxy.park(tag, tid);
            // Kickstarts are per-node CGI output: every request is its
            // own fill. Packages share one in-flight fill per cabinet.
            if tid == self.kick_id || !self.proxy.is_requested(tid) {
                if tid != self.kick_id {
                    self.proxy.mark_requested(tid);
                }
                self.outbox.push(MissRequest {
                    at: engine.now(),
                    cabinet: self.cabinet,
                    target: tid,
                });
            }
            FetchStart::Parked
        }
    }

    fn cancel_wait(&mut self, _engine: &mut Engine, tag: usize) {
        self.proxy.unpark(tag);
    }
}

/// What one [`Shard::step`] ran, so a driver can trace it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Stepped {
    /// Node `id` (global) was woken; `was` is its state beforehand.
    Node { id: usize, was: NodeState },
    /// Entry `idx` of the fault table was applied.
    Fault(usize),
    /// A fill landed at the proxy.
    Fill,
    /// Nothing ran: the next event (if any) is at or past the horizon.
    Quiet(Option<SimTime>),
}

/// One cabinet's simulator: its engine, nodes, fault table, link state
/// and — under the tiered fabric — its proxy cache.
#[derive(Debug)]
pub(crate) struct Shard {
    /// Cabinet index (global).
    id: usize,
    /// Global node id of this shard's first node.
    base: usize,
    pub(crate) engine: Engine,
    pub(crate) nodes: Vec<SimNode>,
    /// The cabinet's caching proxy; `None` when nodes fetch straight
    /// from the install servers.
    proxy: Option<ProxyCache>,
    /// Misses accumulated during the current window.
    outbox: Vec<MissRequest>,
    /// Flow completions, timers (node, fault and fill-delivery) and
    /// faults stepped; a fault also counts as the timer that carried it.
    pub(crate) flow_events: u64,
    pub(crate) timer_events: u64,
    pub(crate) fault_events: u64,
    /// Control events scheduled into this shard.
    pub(crate) faults: Vec<Fault>,
    /// Base (healthy, undegraded) capacity per engine link.
    pub(crate) link_base: Vec<f64>,
    /// Degradation factor per link (1.0 = healthy).
    link_factor: Vec<f64>,
    /// Whether each link's server is currently down. Only ever set for
    /// server links; cabinet links are degraded, not downed.
    link_down: Vec<bool>,
}

/// Node `i`, named by its cabinet, fetching from `servers` in failover
/// order over `extra` shared links.
fn new_node(
    cfg: &SimConfig,
    i: usize,
    cabinet: usize,
    servers: Vec<usize>,
    extra: Vec<usize>,
) -> SimNode {
    let mut node =
        SimNode::with_failover(i, &format!("compute-{cabinet}-{i}"), servers, extra, cfg.seed);
    node.set_quiet(!cfg.node_logs);
    node
}

impl Shard {
    fn new(
        id: usize,
        base: usize,
        engine: Engine,
        nodes: Vec<SimNode>,
        proxy: Option<ProxyCache>,
    ) -> Shard {
        let n_links = engine.link_bytes().len();
        Shard {
            id,
            base,
            link_base: (0..n_links).map(|link| engine.link_capacity(link)).collect(),
            link_factor: vec![1.0; n_links],
            link_down: vec![false; n_links],
            engine,
            nodes,
            proxy,
            outbox: Vec::new(),
            flow_events: 0,
            timer_events: 0,
            fault_events: 0,
            faults: Vec::new(),
        }
    }

    /// The flat topology as one proxy-less shard: the server links plus
    /// optional cabinet uplinks in one engine, and `n_nodes` nodes wired
    /// round-robin across the servers.
    pub(crate) fn flat(cfg: &SimConfig, n_nodes: usize, mode: EngineMode) -> Shard {
        let mut engine = Engine::new_with_mode(vec![cfg.server_capacity_bps; cfg.n_servers], mode);
        let cabinet_links: Vec<usize> = match cfg.cabinet_size {
            Some(k) => {
                (0..n_nodes.div_ceil(k)).map(|_| engine.add_link(cfg.cabinet_uplink_bps)).collect()
            }
            None => Vec::new(),
        };
        let nodes = (0..n_nodes)
            .map(|i| {
                // Home server first, then the remaining replicas in ring
                // order — the failover rotation the retrying install
                // protocol walks.
                let servers = (0..cfg.n_servers).map(|s| (i + s) % cfg.n_servers).collect();
                let cabinet = cfg.cabinet_size.map_or(0, |k| i / k);
                let extra = cabinet_links.get(cabinet).copied().into_iter().collect();
                new_node(cfg, i, cabinet, servers, extra)
            })
            .collect();
        Shard::new(0, 0, engine, nodes, None)
    }

    /// Cabinet `c` of the tiered topology: its share of `n_nodes` behind
    /// a cold proxy whose serve link is the engine's only link.
    fn cabinet(cfg: &SimConfig, tiers: &TierConfig, c: usize, n_nodes: usize) -> Shard {
        let base = c * tiers.cabinet_size;
        let top = ((c + 1) * tiers.cabinet_size).min(n_nodes);
        let nodes = (base..top).map(|i| new_node(cfg, i, c, vec![0], Vec::new())).collect();
        let engine = Engine::new(vec![tiers.proxy_serve_bps]);
        let proxy = ProxyCache::new(cfg.packages.len() + 1);
        Shard::new(c, base, engine, nodes, Some(proxy))
    }

    /// Schedule `fault` at an absolute virtual time (seconds).
    pub(crate) fn schedule_fault(&mut self, at_seconds: f64, fault: Fault) {
        let idx = self.faults.len();
        self.faults.push(fault);
        self.engine.start_timer(CONTROL_TAG_BASE + idx, micros(at_seconds));
    }

    /// Run the next event if it occurs strictly before `horizon`, and
    /// report what it was: the one place engine wakeups are dispatched
    /// to fills, faults and node FSMs.
    #[inline]
    pub(crate) fn step(&mut self, cfg: &SimConfig, horizon: SimTime) -> Stepped {
        let (tag, event) = match self.engine.step_if_before(horizon) {
            Err(next) => return Stepped::Quiet(next),
            Ok(Wakeup::Idle) => return Stepped::Quiet(None),
            Ok(Wakeup::FlowDone { tag }) => {
                self.flow_events += 1;
                (tag, NodeEvent::FlowDone)
            }
            Ok(Wakeup::TimerFired { tag }) => {
                self.timer_events += 1;
                (tag, NodeEvent::TimerFired)
            }
        };
        if tag >= FILL_TAG_BASE {
            self.on_fill(cfg, tag - FILL_TAG_BASE);
            Stepped::Fill
        } else if tag >= CONTROL_TAG_BASE {
            self.fault_events += 1;
            self.apply_fault(cfg, tag - CONTROL_TAG_BASE);
            Stepped::Fault(tag - CONTROL_TAG_BASE)
        } else {
            let local = tag - self.base;
            let was = self.nodes[local].state;
            match self.proxy.as_mut() {
                Some(proxy) => {
                    let mut broker = ProxyBroker {
                        proxy,
                        outbox: &mut self.outbox,
                        cabinet: self.id,
                        kick_id: cfg.packages.len(),
                    };
                    self.nodes[local].on_wakeup_with(&mut self.engine, cfg, event, &mut broker);
                }
                None => self.nodes[local].on_wakeup(&mut self.engine, cfg, event),
            }
            Stepped::Node { id: tag, was }
        }
    }

    /// Whether this shard can run ahead of the global window: nothing is
    /// parked on its proxy, so no tier event can ever reach it until it
    /// emits a miss of its own (fills only answer this cabinet's own
    /// requests).
    fn can_run_ahead(&self) -> bool {
        self.proxy.as_ref().is_none_or(|p| p.parked() == 0)
    }

    /// Run this shard's engine up to (but excluding) `horizon`, appending
    /// emitted miss requests to `out`, and return the earliest remaining
    /// event (`None` when drained). A `SimTime::MAX` horizon means the
    /// shard is running ahead of the window (see
    /// [`can_run_ahead`](Shard::can_run_ahead)); it then stops at the
    /// first miss it emits, because the response time of that miss
    /// depends on tier contention it cannot know locally.
    fn run_window(
        &mut self,
        cfg: &SimConfig,
        horizon: SimTime,
        out: &mut Vec<MissRequest>,
    ) -> Option<SimTime> {
        let next = loop {
            if horizon == SimTime::MAX && !self.outbox.is_empty() {
                break self.engine.peek_next_at();
            }
            if let Stepped::Quiet(next) = self.step(cfg, horizon) {
                break next;
            }
        };
        out.append(&mut self.outbox);
        next
    }

    /// A fill landed at the proxy: start serve flows for the released
    /// waiters. Target `packages.len()` is the kickstart.
    fn on_fill(&mut self, cfg: &SimConfig, target: usize) {
        let bytes = cfg.packages.get(target).map_or(cfg.kickstart_bytes, |p| p.transfer_bytes);
        let proxy = self.proxy.as_mut().expect("only a proxy's misses are answered by fills");
        proxy.fills += 1;
        proxy.fill_bytes += bytes;
        let released = proxy.fill_landed(target, cfg.packages.len());
        for tag in released {
            let route = &self.nodes[tag - self.base].route;
            self.engine.start_flow_routed(route, tag, bytes, cfg.per_stream_bps);
        }
    }

    /// Arm the delivery timer for a completed fill: it becomes visible
    /// to this shard at `at`, one store-and-forward latency after it
    /// finished.
    fn deliver_fill(&mut self, target: usize, at: SimTime) {
        let delay = at.saturating_sub(self.engine.now());
        self.engine.start_timer(FILL_TAG_BASE + target, delay);
    }

    /// Push `link`'s effective capacity (base × degradation, zero while
    /// its server is down) into the engine.
    fn refresh_link(&mut self, link: usize) {
        let bps =
            if self.link_down[link] { 0.0 } else { self.link_base[link] * self.link_factor[link] };
        self.engine.set_link_capacity(link, bps);
    }

    /// Apply fault `idx` to this shard's links and nodes (node ids in
    /// faults are global). A fault naming a server, link or node the
    /// shard does not hold is a no-op. Links `..cfg.n_servers` are the
    /// servers — the federated router never forwards a server fault to
    /// a cabinet, whose one link is its proxy.
    fn apply_fault(&mut self, cfg: &SimConfig, idx: usize) {
        match self.faults[idx] {
            // Only a known server whose state actually changes is
            // touched: a repeated down, or reviving a server that was
            // never taken down, must not clobber the link's (possibly
            // degraded) capacity, and ids beyond the server range must
            // not touch cabinet uplinks.
            Fault::ServerDown(id) | Fault::ServerUp(id) => {
                let down = matches!(self.faults[idx], Fault::ServerDown(_));
                if id < cfg.n_servers && self.link_down[id] != down {
                    self.link_down[id] = down;
                    self.refresh_link(id);
                }
            }
            Fault::NodeHang(id) | Fault::PowerCycle(id) => {
                let Some(node) = id.checked_sub(self.base).and_then(|i| self.nodes.get_mut(i))
                else {
                    return;
                };
                if let Some(proxy) = self.proxy.as_mut() {
                    proxy.unpark(id);
                }
                if matches!(self.faults[idx], Fault::NodeHang(_)) {
                    node.hang(&mut self.engine);
                } else {
                    node.power_on(&mut self.engine, cfg);
                }
            }
            Fault::LinkDegrade { link, factor } => {
                if link < self.link_base.len() {
                    self.link_factor[link] = factor.clamp(0.0, 1.0);
                    self.refresh_link(link);
                }
            }
        }
    }

    /// Work that can never finish on its own: live flows (possibly
    /// starved) plus requests parked on the proxy.
    pub(crate) fn wedged_work(&self) -> usize {
        self.engine.active_flows() + self.proxy.as_ref().map_or(0, ProxyCache::parked)
    }
}

/// A contiguous run of shards stepped by one thread, with dense mirrors
/// of each shard's earliest pending event and run-ahead eligibility: the
/// per-window scans touch these cache-resident arrays instead of 16k
/// scattered shard structs.
struct Chunk<'a> {
    shards: &'a mut [Shard],
    next: Vec<Option<SimTime>>,
    ahead: Vec<bool>,
}

impl<'a> Chunk<'a> {
    fn new(shards: &'a mut [Shard]) -> Chunk<'a> {
        let next = shards.iter_mut().map(|s| s.engine.peek_next_at()).collect();
        let ahead = shards.iter().map(Shard::can_run_ahead).collect();
        Chunk { shards, next, ahead }
    }

    /// Earliest pending event in any of the shards.
    fn next_at(&self) -> Option<SimTime> {
        self.next.iter().copied().flatten().min()
    }

    /// The shard half of one window: deliver the `fills` the tier
    /// completed last window to their cabinets (all in this chunk),
    /// then run every shard with an event before `end` up to `end` — a
    /// shard with nothing parked runs ahead until it emits a miss —
    /// and return the earliest event left. Delivering now rather than
    /// when the fill completed is equivalent: a delivery timer never
    /// lands inside a window that already ran.
    fn run_window(
        &mut self,
        cfg: &SimConfig,
        window: SimTime,
        end: SimTime,
        fills: &[FillDone],
        out: &mut Vec<MissRequest>,
    ) -> Option<SimTime> {
        let first = self.shards.first().map_or(0, |s| s.id);
        for fill in fills {
            let (i, at) = (fill.cabinet - first, fill.at + window);
            self.shards[i].deliver_fill(fill.target, at);
            self.next[i] = Some(self.next[i].map_or(at, |t| t.min(at)));
        }
        for (i, shard) in self.shards.iter_mut().enumerate() {
            let (next, ahead) = (self.next[i], self.ahead[i]);
            let run = if ahead { next.is_some() } else { next.is_some_and(|at| at < end) };
            if run {
                let horizon = if ahead { SimTime::MAX } else { end };
                self.next[i] = shard.run_window(cfg, horizon, out);
                self.ahead[i] = shard.can_run_ahead();
            }
        }
        self.next_at()
    }
}

/// The window loop, written once for both drivers. Each round picks
/// `end`, the first window boundary past the earliest pending event
/// anywhere (shards, pooled requests, tier, undelivered fills); has
/// `run_shards(end, fills, pool)` run the shard half — every chunk's
/// [`Chunk::run_window`], misses appended to the pool in shard order,
/// earliest shard event left returned; then injects the pooled requests
/// below `end` into the tier and advances it to `end`. Requests from
/// run-ahead shards beyond `end` stay pooled: the tier must ingest
/// misses in global time order. The sort is stable, so ingestion order
/// does not depend on how shards were spread over threads.
fn run_windows(
    tier: &mut TierNet,
    window: SimTime,
    mut shards_next: Option<SimTime>,
    mut run_shards: impl FnMut(SimTime, &[FillDone], &mut Vec<MissRequest>) -> Option<SimTime>,
) {
    let mut pool: Vec<MissRequest> = Vec::new();
    let mut fills: Vec<FillDone> = Vec::new();
    loop {
        let t_all = shards_next
            .into_iter()
            .chain(pool.first().map(|r| r.at))
            .chain(tier.next_event_at())
            .chain(fills.iter().map(|fill| fill.at + window))
            .min();
        let Some(t) = t_all else { break };
        let end = (t / window + 1) * window;
        shards_next = run_shards(end, &fills, &mut pool);
        pool.sort_by_key(|r| (r.at, r.cabinet));
        let cut = pool.partition_point(|r| r.at < end);
        tier.inject(&pool[..cut]);
        pool.drain(..cut);
        fills.clear();
        tier.advance_to(end, &mut fills);
    }
}

/// Pre-resolved tier metric handles (see `NetsimTelemetry` in
/// [`crate::cluster`] for the flush-once pattern).
#[derive(Debug)]
struct FederatedTelemetry {
    proxy_hits: Counter,
    proxy_misses: Counter,
    campus_hits: Counter,
    campus_misses: Counter,
    proxy_hit_bytes: Gauge,
    proxy_miss_bytes: Gauge,
    proxy_fill_bytes: Gauge,
    cabinet_fill_bytes: Gauge,
    root_fill_bytes: Gauge,
    /// (proxy hits, proxy misses, campus hits, campus misses) already
    /// published.
    flushed: std::cell::Cell<(u64, u64, u64, u64)>,
}

/// The federated cluster simulation: per-cabinet shards under the
/// multi-tier distribution fabric, driven in conservative time windows
/// across a configurable worker-thread pool.
#[derive(Debug)]
pub struct FederatedSim {
    cfg: SimConfig,
    tiers: TierConfig,
    shards: Vec<Shard>,
    tier: TierNet,
    /// Conservative lookahead window, µs (= the tier fill latency).
    window: SimTime,
    threads: usize,
    trace: Tracer,
    telemetry: Option<FederatedTelemetry>,
}

impl FederatedSim {
    /// Build the tiered federation: `n_nodes` nodes in cabinets of
    /// [`TierConfig::cabinet_size`], each cabinet a shard behind its
    /// caching proxy, cabinets grouped under campus servers fed from
    /// the root. `cfg` supplies the node state machine and package set;
    /// the topology comes entirely from `tiers` (`cfg.n_servers` and
    /// `cfg.cabinet_size` are ignored).
    pub fn new_tiered(cfg: SimConfig, tiers: TierConfig, n_nodes: usize) -> FederatedSim {
        assert!(tiers.fill_latency_s > 0.0, "the fill latency is the sync window; it must be > 0");
        let window = micros(tiers.fill_latency_s);
        assert!(window > 0, "fill latency must round to at least 1 µs");
        let n_cabinets = tiers.n_cabinets(n_nodes);
        let tier = TierNet::new(&cfg, tiers, n_cabinets);
        let shards = (0..n_cabinets).map(|c| Shard::cabinet(&cfg, &tiers, c, n_nodes)).collect();
        FederatedSim {
            cfg,
            tiers,
            shards,
            tier,
            window,
            threads: 1,
            trace: Tracer::disabled(),
            telemetry: None,
        }
    }

    /// Worker threads for the shard loop (default 1 = serial). The
    /// result is bit-identical for every value — threads only change
    /// wall-clock time.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Route tier counters through `tracer`'s registry (see
    /// [`ClusterSim::set_tracer`](crate::cluster::ClusterSim::set_tracer)).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.telemetry = tracer.registry().map(|reg| FederatedTelemetry {
            proxy_hits: reg.counter("netsim.tier.proxy.hits"),
            proxy_misses: reg.counter("netsim.tier.proxy.misses"),
            campus_hits: reg.counter("netsim.tier.campus.hits"),
            campus_misses: reg.counter("netsim.tier.campus.misses"),
            proxy_hit_bytes: reg.gauge("netsim.tier.proxy.hit_bytes"),
            proxy_miss_bytes: reg.gauge("netsim.tier.proxy.miss_bytes"),
            proxy_fill_bytes: reg.gauge("netsim.tier.proxy.fill_bytes"),
            cabinet_fill_bytes: reg.gauge("netsim.tier.cabinet.fill_bytes"),
            root_fill_bytes: reg.gauge("netsim.tier.root.fill_bytes"),
            flushed: std::cell::Cell::new((0, 0, 0, 0)),
        });
        self.trace = tracer;
    }

    /// Schedule a fault at an absolute virtual time (seconds), routed
    /// to the owning shard. `NodeHang`/`PowerCycle` address global node
    /// ids and `LinkDegrade`'s `link` is a cabinet index (degrading
    /// that cabinet's serve link); a node or cabinet that does not
    /// exist makes the fault a no-op. `ServerDown`/`Up` have no tiered
    /// counterpart and are ignored.
    pub fn inject_fault_at(&mut self, at_seconds: f64, fault: Fault) {
        let (cabinet, fault) = match fault {
            Fault::NodeHang(id) | Fault::PowerCycle(id) => (id / self.tiers.cabinet_size, fault),
            Fault::LinkDegrade { link, factor } => (link, Fault::LinkDegrade { link: 0, factor }),
            Fault::ServerDown(_) | Fault::ServerUp(_) => return,
        };
        if let Some(shard) = self.shards.get_mut(cabinet) {
            shard.schedule_fault(at_seconds, fault);
        }
    }

    /// Total nodes across all shards.
    pub fn n_nodes(&self) -> usize {
        self.shards.iter().map(|s| s.nodes.len()).sum()
    }

    /// Number of shards (cabinets).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Events processed across shard engines and tier engines.
    pub fn events(&self) -> u64 {
        self.shards.iter().map(|s| s.flow_events + s.timer_events).sum::<u64>() + self.tier.events
    }

    /// A node by global id.
    pub fn node(&self, id: usize) -> &SimNode {
        let shard = &self.shards[id / self.tiers.cabinet_size];
        &shard.nodes[id - shard.base]
    }

    /// All nodes in global id order.
    pub fn nodes(&self) -> impl Iterator<Item = &SimNode> {
        self.shards.iter().flat_map(|s| s.nodes.iter())
    }

    /// Per-shard engine byte ledgers (link 0 is the shard's serve link).
    pub fn shard_link_bytes(&self) -> Vec<Vec<f64>> {
        self.shards.iter().map(|s| s.engine.link_bytes().to_vec()).collect()
    }

    /// Power on every node and run to quiescence across all shards and
    /// tiers. Fails with [`SimError::Stalled`] — carrying the wedged
    /// shard's id — when some sub-simulator holds flows or parked
    /// requests that can never complete, and with
    /// [`ReinstallError::AllServersDown`] when a node exhausted its
    /// retry budget.
    pub fn try_run_reinstall(&mut self) -> Result<ReinstallResult, ReinstallError> {
        let _run = self.trace.span("netsim.run");
        for shard in &mut self.shards {
            for node in &mut shard.nodes {
                node.power_on(&mut shard.engine, &self.cfg);
            }
        }
        let threads = self.threads.min(self.shards.len());
        if threads <= 1 {
            self.run_serial();
        } else {
            self.run_parallel(threads);
        }
        // The loop only exits when no engine holds a runnable event, so
        // leftover work is wedged forever: starved flows or parked
        // cache waits inside a shard, or an inconsistent tier.
        if let Some(shard) = self.shards.iter().find(|s| s.wedged_work() > 0) {
            return Err(ReinstallError::Sim(SimError::Stalled {
                active_flows: shard.wedged_work(),
                shard: Some(shard.id),
            }));
        }
        if self.tier.busy() {
            return Err(ReinstallError::Sim(SimError::Stalled { active_flows: 0, shard: None }));
        }
        check_none_failed(self.nodes())?;
        Ok(self.collect_result())
    }

    /// Infallible [`try_run_reinstall`](Self::try_run_reinstall);
    /// panics on stall or exhausted retries.
    pub fn run_reinstall(&mut self) -> ReinstallResult {
        self.try_run_reinstall().unwrap_or_else(|e| panic!("{e}"))
    }

    /// The window loop on the calling thread: every shard in one chunk,
    /// no channel traffic.
    fn run_serial(&mut self) {
        let (cfg, window) = (&self.cfg, self.window);
        let mut chunk = Chunk::new(&mut self.shards);
        run_windows(&mut self.tier, window, chunk.next_at(), |end, fills, pool| {
            chunk.run_window(cfg, window, end, fills, pool)
        });
    }

    /// The same window loop with shards partitioned into contiguous
    /// chunks across persistent worker threads. The coordinator owns
    /// the tier; fills complete on its side of the barrier and are
    /// delivered by the owning worker at the start of the next window.
    /// On stall the global event horizon simply empties — workers are
    /// released by dropping their command channels, never blocked on a
    /// barrier — so the error surfaces through
    /// [`try_run_reinstall`](Self::try_run_reinstall) like any other.
    fn run_parallel(&mut self, threads: usize) {
        let (cfg, window) = (&self.cfg, self.window);
        let chunk_size = self.shards.len().div_ceil(threads);
        std::thread::scope(|scope| {
            let (res_tx, res_rx) = mpsc::channel::<(usize, Vec<MissRequest>, Option<SimTime>)>();
            let mut cmd_txs = Vec::new();
            let mut worker_next: Vec<Option<SimTime>> = Vec::new();
            for (w, shards) in self.shards.chunks_mut(chunk_size).enumerate() {
                let (cmd_tx, cmd_rx) = mpsc::channel::<(SimTime, Vec<FillDone>)>();
                cmd_txs.push(cmd_tx);
                let res_tx = res_tx.clone();
                let mut chunk = Chunk::new(shards);
                worker_next.push(chunk.next_at());
                scope.spawn(move || {
                    while let Ok((end, fills)) = cmd_rx.recv() {
                        let mut requests = Vec::new();
                        let next = chunk.run_window(cfg, window, end, &fills, &mut requests);
                        if res_tx.send((w, requests, next)).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(res_tx);
            let first = worker_next.iter().copied().flatten().min();
            run_windows(&mut self.tier, window, first, |end, fills, pool| {
                let mut inbox: Vec<Vec<FillDone>> = vec![Vec::new(); cmd_txs.len()];
                for fill in fills {
                    inbox[fill.cabinet / chunk_size].push(*fill);
                }
                for (cmd_tx, fills) in cmd_txs.iter().zip(inbox) {
                    let _ = cmd_tx.send((end, fills));
                }
                let mut gathered: Vec<Vec<MissRequest>> = vec![Vec::new(); cmd_txs.len()];
                for _ in 0..cmd_txs.len() {
                    let (w, requests, next) = res_rx.recv().expect("a shard worker exited mid-run");
                    gathered[w] = requests;
                    worker_next[w] = next;
                }
                // Concatenating in worker order is shard order (chunks
                // are contiguous), exactly what the serial path pools.
                pool.extend(gathered.into_iter().flatten());
                worker_next.iter().copied().flatten().min()
            });
            drop(cmd_txs); // releases the workers; scope joins them
        });
    }

    /// Aggregate cache behaviour across the tiers. Always `Some`; the
    /// `Option` is the signature the benchmark ledger calls (its
    /// `sim-reinstall` workload).
    pub fn tier_report(&self) -> Option<TierReport> {
        let proxies =
            || self.shards.iter().map(|s| s.proxy.as_ref().expect("tiered shards carry proxies"));
        Some(TierReport {
            n_cabinets: self.shards.len(),
            n_campuses: self.tier.n_campuses(),
            proxy_hits: proxies().map(|p| p.hits).sum(),
            proxy_misses: proxies().map(|p| p.misses).sum(),
            proxy_hit_bytes: proxies().map(|p| p.hit_bytes).sum(),
            proxy_miss_bytes: proxies().map(|p| p.miss_bytes).sum(),
            proxy_fills: proxies().map(|p| p.fills).sum(),
            proxy_fill_bytes: proxies().map(|p| p.fill_bytes).sum(),
            proxy_serve_bytes: self.shards.iter().map(|s| s.engine.link_bytes()[0]).sum(),
            campus_hits: self.tier.campus_hits,
            campus_misses: self.tier.campus_misses,
            cabinet_fill_bytes: self.tier.cabinet_fill_bytes(),
            root_fill_bytes: self.tier.root_fill_bytes(),
        })
    }

    /// Snapshot the run outcome (same shape as
    /// [`ClusterSim::collect_result`](crate::cluster::ClusterSim::collect_result)).
    /// `server_bytes` holds the root mirror's delivered bytes; per-tier
    /// ledgers live in [`tier_report`](Self::tier_report).
    pub fn collect_result(&self) -> ReinstallResult {
        if let (Some(t), Some(report)) = (&self.telemetry, self.tier_report()) {
            let now =
                (report.proxy_hits, report.proxy_misses, report.campus_hits, report.campus_misses);
            let prev = t.flushed.replace(now);
            t.proxy_hits.add(now.0 - prev.0);
            t.proxy_misses.add(now.1 - prev.1);
            t.campus_hits.add(now.2 - prev.2);
            t.campus_misses.add(now.3 - prev.3);
            t.proxy_hit_bytes.set(report.proxy_hit_bytes as f64);
            t.proxy_miss_bytes.set(report.proxy_miss_bytes as f64);
            t.proxy_fill_bytes.set(report.proxy_fill_bytes as f64);
            t.cabinet_fill_bytes.set(report.cabinet_fill_bytes);
            t.root_fill_bytes.set(report.root_fill_bytes);
        }
        ReinstallResult::of(&self.shards, vec![self.tier.root_fill_bytes()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(seed: u64) -> SimConfig {
        SimConfig::paper_testbed(seed).bundled(12)
    }

    fn tiny_tiers() -> TierConfig {
        TierConfig { cabinet_size: 4, cabinets_per_campus: 2, ..TierConfig::standard() }
    }

    fn logs_of<'a>(nodes: impl Iterator<Item = &'a SimNode>) -> Vec<(SimTime, String)> {
        nodes.flat_map(|n| n.log.iter().map(|l| (l.at, l.text.clone()))).collect()
    }

    #[test]
    fn tiered_cluster_installs_every_node() {
        let mut sim = FederatedSim::new_tiered(small_cfg(1), tiny_tiers(), 10);
        let result = sim.run_reinstall();
        assert_eq!(result.completed(), 10);
        assert!(result.total_seconds > 0.0);
        let report = sim.tier_report().expect("tiered run has a report");
        assert_eq!(report.n_cabinets, 3);
        assert!(report.proxy_hits > 0, "second fetcher in a cabinet must hit the cache");
    }

    #[test]
    fn package_crosses_campus_uplink_once_per_cabinet() {
        // Two nodes in ONE cabinet: every package crosses the cabinet
        // uplink exactly once (the kickstart, uncacheable, crosses once
        // per node) and the root serves each package exactly once.
        let cfg = small_cfg(1);
        let pkg_bytes: u64 = cfg.packages.iter().map(|p| p.transfer_bytes).sum();
        let kick = cfg.kickstart_bytes;
        let mut sim = FederatedSim::new_tiered(cfg, tiny_tiers(), 2);
        let result = sim.run_reinstall();
        assert_eq!(result.completed(), 2);
        let report = sim.tier_report().unwrap();
        let expect_cabinet = (pkg_bytes + 2 * kick) as f64;
        assert!(
            (report.cabinet_fill_bytes - expect_cabinet).abs() < 64.0,
            "cabinet fills {} vs {expect_cabinet}",
            report.cabinet_fill_bytes
        );
        assert!(
            (report.root_fill_bytes - pkg_bytes as f64).abs() < 64.0,
            "root fills {} vs {pkg_bytes}",
            report.root_fill_bytes
        );
        // Every request is a hit or a miss; a "miss" includes joining a
        // fill already in flight (the nodes run near-lockstep), which is
        // exactly what keeps the uplink crossings at one per package.
        let n_pkgs = sim.cfg.packages.len() as u64;
        assert_eq!(report.proxy_hits + report.proxy_misses, 2 * n_pkgs + 2);
        assert!(report.proxy_misses >= n_pkgs + 2, "first fetcher always misses");
        // Fills: one per package + one per kickstart request.
        assert_eq!(report.proxy_fills, n_pkgs + 2);
    }

    #[test]
    fn proxy_counters_reconcile_with_link_ledgers() {
        let mut sim = FederatedSim::new_tiered(small_cfg(3), tiny_tiers(), 12);
        sim.run_reinstall();
        let report = sim.tier_report().unwrap();
        // Every byte a node received was either a cache hit or a miss
        // wait — and all of them left the proxy's serve link.
        let served = (report.proxy_hit_bytes + report.proxy_miss_bytes) as f64;
        assert!(
            (report.proxy_serve_bytes - served).abs() / served < 1e-6,
            "serve ledger {} vs counters {served}",
            report.proxy_serve_bytes
        );
        // Every fill the proxies counted arrived over a campus link.
        let fills = report.proxy_fill_bytes as f64;
        assert!(
            (report.cabinet_fill_bytes - fills).abs() / fills < 1e-6,
            "campus ledger {} vs proxy fills {fills}",
            report.cabinet_fill_bytes
        );
        // The root served each distinct package at most once per campus.
        assert!(report.root_fill_bytes <= report.cabinet_fill_bytes);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let run = |threads: usize| {
            let mut sim = FederatedSim::new_tiered(small_cfg(7), tiny_tiers(), 16);
            sim.set_threads(threads);
            let result = sim.run_reinstall();
            let report = sim.tier_report().unwrap();
            (
                result.per_node_seconds.clone(),
                result.total_seconds.to_bits(),
                sim.shard_link_bytes().into_iter().flatten().map(f64::to_bits).collect::<Vec<_>>(),
                (report.proxy_hits, report.proxy_misses, report.campus_hits, report.campus_misses),
                logs_of(sim.nodes()),
            )
        };
        let serial = run(1);
        assert_eq!(run(2), serial, "2 workers must match serial bit for bit");
        assert_eq!(run(8), serial, "8 workers must match serial bit for bit");
    }

    #[test]
    fn dead_cabinet_serve_link_stalls_with_shard_id() {
        let mut sim = FederatedSim::new_tiered(small_cfg(1), tiny_tiers(), 8);
        // Cabinet 1's proxy serve link dies early: its nodes' transfers
        // starve forever while cabinet 0 completes.
        sim.inject_fault_at(50.0, Fault::LinkDegrade { link: 1, factor: 0.0 });
        match sim.try_run_reinstall() {
            Err(ReinstallError::Sim(SimError::Stalled { active_flows, shard })) => {
                assert!(active_flows > 0);
                assert_eq!(shard, Some(1), "the stall must name the wedged cabinet");
            }
            other => panic!("expected a shard stall, got {other:?}"),
        }
        // The healthy cabinet still finished.
        assert!(sim.node(0).state == NodeState::Up);
        assert!(sim.node(4).state != NodeState::Up);
    }

    #[test]
    fn stall_error_is_reported_identically_across_thread_counts() {
        let run = |threads: usize| {
            let mut sim = FederatedSim::new_tiered(small_cfg(1), tiny_tiers(), 8);
            sim.set_threads(threads);
            sim.inject_fault_at(50.0, Fault::LinkDegrade { link: 1, factor: 0.0 });
            format!("{:?}", sim.try_run_reinstall().unwrap_err())
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn tier_counters_reach_the_trace_registry() {
        let tracer = rocks_trace::Tracer::ring_sim(1 << 12);
        let mut sim = FederatedSim::new_tiered(small_cfg(1), tiny_tiers(), 6);
        sim.set_tracer(tracer.clone());
        sim.run_reinstall();
        let report = sim.tier_report().unwrap();
        let snap = tracer.registry().expect("ring_sim carries a registry").snapshot();
        assert_eq!(snap.counter("netsim.tier.proxy.hits"), report.proxy_hits);
        assert_eq!(snap.counter("netsim.tier.proxy.misses"), report.proxy_misses);
        assert_eq!(snap.counter("netsim.tier.campus.misses"), report.campus_misses);
        assert_eq!(snap.gauge("netsim.tier.proxy.hit_bytes"), report.proxy_hit_bytes as f64);
        assert_eq!(snap.gauge("netsim.tier.root.fill_bytes"), report.root_fill_bytes);
        // Collecting twice must not double-count the counters.
        sim.collect_result();
        let again = tracer.registry().unwrap().snapshot();
        assert_eq!(again.counter("netsim.tier.proxy.hits"), report.proxy_hits);
    }

    #[test]
    fn power_cycle_routes_to_the_owning_shard() {
        let mut sim = FederatedSim::new_tiered(small_cfg(2), tiny_tiers(), 8);
        sim.inject_fault_at(200.0, Fault::PowerCycle(5));
        let result = sim.run_reinstall();
        assert_eq!(result.completed(), 8);
        // Node 5 (cabinet 1) restarted and reinstalled; its neighbours
        // in cabinet 0 kept their single life.
        assert_eq!(sim.node(5).lives, 2);
        assert_eq!(sim.node(0).lives, 1);
        assert!(
            sim.node(5).install_finished.unwrap() > micros(200.0),
            "the restarted node finishes after the fault"
        );
    }
}
