//! Cluster-level experiment driver.
//!
//! Runs whole-cluster reinstallations (Table I), the serial-download
//! micro-benchmark (§6.3), full-speed concurrency searches (the Gigabit
//! and replication projections), and failure injection (§4's common-mode
//! failure scenarios).
//!
//! [`ClusterSim`] drives the crate's one cabinet simulator, [`Shard`],
//! as a single proxy-less shard holding every node. Event dispatch,
//! faults and link state are the shard's; here is only what the flat
//! driver alone has: tracer marks, utilization samples, staggered and
//! subset power-on, and the choice of [`EngineMode`] that keeps the
//! reference scheduler available as an oracle.

use crate::config::SimConfig;
use crate::engine::{seconds, Engine, EngineMode, SimError, SimTime, Wakeup};
use crate::node::{NodeState, SimNode};
use crate::reinstall::ReinstallError;
use crate::shard::{Shard, Stepped};
use rocks_trace::{Counter, Gauge, Tracer};

/// Control events injected into a run at absolute virtual times.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// The HTTP server `id` dies (capacity → 0). A no-op for an id that
    /// is not a server or a server already down.
    ServerDown(usize),
    /// The HTTP server `id` comes back at its nominal (possibly
    /// degraded) capacity. A no-op for a server that was never taken
    /// down — reviving a healthy server must not touch its capacity.
    ServerUp(usize),
    /// Node `id` hangs hard (requires a power cycle).
    NodeHang(usize),
    /// The PDU hard-power-cycles node `id` (forces a fresh reinstall,
    /// per the paper's footnote in §4).
    PowerCycle(usize),
    /// Link `link` (server uplink or cabinet uplink) runs at `factor` ×
    /// its base capacity — a flaky switch port or duplex mismatch.
    /// `factor` is clamped to `[0, 1]`; 1.0 restores the link. Composes
    /// with server down/up: the factor applies once the server is back.
    LinkDegrade {
        /// Engine link index.
        link: usize,
        /// Fraction of base capacity the link now sustains.
        factor: f64,
    },
}

/// Engine tags at or above this value address control events (indices
/// into a shard's fault table), not nodes.
pub(crate) const CONTROL_TAG_BASE: usize = 1 << 32;

/// Outcome of one whole-cluster reinstallation.
#[derive(Debug, Clone)]
pub struct ReinstallResult {
    /// Seconds each node took from power-on to `Up` (nodes that never
    /// finished hold `None`).
    pub per_node_seconds: Vec<Option<f64>>,
    /// Wall-clock seconds until the last node was up.
    pub total_seconds: f64,
    /// Bytes each server delivered.
    pub server_bytes: Vec<f64>,
    /// Fetch attempts each node issued (kickstart + packages, including
    /// retries, across power-cycle lives). Without the retrying install
    /// protocol this is exactly the number of fetches started.
    pub per_node_attempts: Vec<u32>,
    /// Times each node failed over to a different install server.
    pub per_node_failovers: Vec<u32>,
    /// Seconds each node spent waiting out retry backoffs (downtime the
    /// retrying protocol added on top of the transfers themselves).
    pub per_node_backoff_seconds: Vec<f64>,
}

impl ReinstallResult {
    /// The outcome of a run over `shards` (in cabinet order). The
    /// cluster is done when the last node came up, which the shard
    /// clocks bound (tier engines can idle slightly behind — their last
    /// fill predates its delivery timer by the latency).
    pub(crate) fn of(shards: &[Shard], server_bytes: Vec<f64>) -> ReinstallResult {
        let nodes = || shards.iter().flat_map(|s| &s.nodes);
        let ended_at = shards.iter().map(|s| s.engine.now()).max().unwrap_or(0);
        ReinstallResult {
            per_node_seconds: nodes().map(SimNode::last_install_seconds).collect(),
            total_seconds: seconds(ended_at),
            server_bytes,
            per_node_attempts: nodes().map(|n| n.fetch_attempts).collect(),
            per_node_failovers: nodes().map(|n| n.failovers).collect(),
            per_node_backoff_seconds: nodes().map(|n| n.backoff_seconds).collect(),
        }
    }

    /// Total time in minutes — Table I's unit.
    pub fn total_minutes(&self) -> f64 {
        self.total_seconds / 60.0
    }

    /// How many nodes completed.
    pub fn completed(&self) -> usize {
        self.per_node_seconds.iter().flatten().count()
    }

    /// Mean per-node reinstall seconds over completed nodes.
    pub fn mean_node_seconds(&self) -> f64 {
        let done: Vec<f64> = self.per_node_seconds.iter().flatten().copied().collect();
        if done.is_empty() {
            return f64::NAN;
        }
        done.iter().sum::<f64>() / done.len() as f64
    }

    /// Aggregate server throughput in bytes/s over the run.
    pub fn aggregate_throughput_bps(&self) -> f64 {
        if self.total_seconds <= 0.0 {
            return 0.0;
        }
        self.server_bytes.iter().sum::<f64>() / self.total_seconds
    }

    /// Total fetch attempts across the cluster.
    pub fn total_attempts(&self) -> u64 {
        self.per_node_attempts.iter().map(|&a| u64::from(a)).sum()
    }

    /// Total install-server failovers across the cluster.
    pub fn total_failovers(&self) -> u64 {
        self.per_node_failovers.iter().map(|&a| u64::from(a)).sum()
    }

    /// Total seconds of retry-backoff downtime across the cluster.
    pub fn total_backoff_seconds(&self) -> f64 {
        self.per_node_backoff_seconds.iter().sum()
    }
}

/// Post-quiescence check: a node the retrying install protocol gave up
/// on is a typed error, not a silent `None` in `per_node_seconds`.
pub(crate) fn check_none_failed<'a>(
    mut nodes: impl Iterator<Item = &'a SimNode>,
) -> Result<(), ReinstallError> {
    match nodes.find(|n| n.state == NodeState::Failed) {
        Some(node) => Err(ReinstallError::AllServersDown {
            node: node.name.clone(),
            attempts: node.target_attempts,
        }),
        None => Ok(()),
    }
}

/// Pre-resolved metric handles, built once in
/// [`ClusterSim::set_tracer`]. The hot path (`step_once`) only bumps
/// the shard's plain integers; totals are published into these handles
/// at [`ClusterSim::collect_result`], as deltas since the previous flush
/// so collecting twice (or sharing a registry across sequential sims)
/// never double-counts.
#[derive(Debug)]
struct NetsimTelemetry {
    flow_completions: Counter,
    timers: Counter,
    fetch_attempts: Counter,
    failovers: Counter,
    kickstart_requests: Counter,
    installs_completed: Counter,
    faults: Counter,
    /// Total retry-backoff seconds (f64; set idempotently at collection).
    backoff_seconds: Gauge,
    /// Bytes settled per engine link (servers first, then cabinet
    /// uplinks); set idempotently in [`ClusterSim::collect_result`].
    link_bytes: Vec<Gauge>,
    /// Totals already published, so a re-collect adds only the delta.
    flushed: std::cell::Cell<EventTally>,
}

/// Cumulative per-run totals mirrored into the registry at collection.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct EventTally {
    flows: u64,
    timers: u64,
    faults: u64,
    fetch_attempts: u64,
    failovers: u64,
    kickstart_requests: u64,
    installs_completed: u64,
}

/// A simulated cluster: one shard (engine + nodes + faults + links)
/// over the flat topology, plus the configured package set.
#[derive(Debug)]
pub struct ClusterSim {
    cfg: SimConfig,
    shard: Shard,
    /// (virtual seconds, cumulative server bytes) sampled at every event,
    /// for utilization timelines.
    samples: Vec<(f64, f64)>,
    /// Telemetry destination; disabled by default (zero cost per event).
    trace: Tracer,
    /// Cached `trace.records_events()`: the per-event path tests one
    /// local bool instead of dereferencing the tracer, so the disabled
    /// and no-op-sink configurations cost the same — nothing.
    trace_events: bool,
    /// Metric handles resolved once when a tracer with a registry is
    /// attached; `None` keeps the hot path untouched.
    telemetry: Option<NetsimTelemetry>,
}

impl ClusterSim {
    /// Build a cluster of `n_nodes` compute nodes assigned round-robin
    /// across the configured servers. With a cabinet topology, node `i`
    /// sits in cabinet `i / cabinet_size` behind that cabinet's uplink.
    pub fn new(cfg: SimConfig, n_nodes: usize) -> ClusterSim {
        ClusterSim::new_with_mode(cfg, n_nodes, EngineMode::Fast)
    }

    /// Build a cluster running a specific engine scheduler — the
    /// differential tests and the fast-vs-reference benchmark drive the
    /// same cluster through both paths.
    pub fn new_with_mode(cfg: SimConfig, n_nodes: usize, mode: EngineMode) -> ClusterSim {
        ClusterSim {
            shard: Shard::flat(&cfg, n_nodes, mode),
            cfg,
            samples: Vec::new(),
            trace: Tracer::disabled(),
            trace_events: false,
            telemetry: None,
        }
    }

    /// Route this cluster's events and counters through `tracer`. The
    /// virtual clock is driven from engine time, so traces are exactly as
    /// deterministic as the simulation itself. Metric handles are
    /// resolved here, once, against the tracer's registry.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.telemetry = tracer.registry().map(|reg| NetsimTelemetry {
            flow_completions: reg.counter("netsim.flow.completions"),
            timers: reg.counter("netsim.timers"),
            fetch_attempts: reg.counter("netsim.fetch.attempts"),
            failovers: reg.counter("netsim.failovers"),
            kickstart_requests: reg.counter("netsim.kickstart.requests"),
            installs_completed: reg.counter("netsim.installs.completed"),
            faults: reg.counter("netsim.faults"),
            backoff_seconds: reg.gauge("netsim.backoff_seconds"),
            link_bytes: (0..self.shard.link_base.len())
                .map(|i| reg.gauge(&format!("netsim.link.bytes.{i}")))
                .collect(),
            flushed: std::cell::Cell::new(EventTally::default()),
        });
        self.trace_events = tracer.records_events();
        self.trace = tracer;
    }

    /// The tracer attached via [`set_tracer`](Self::set_tracer)
    /// (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.trace
    }

    /// Schedule a fault at an absolute virtual time (seconds). Must be
    /// called before [`run_reinstall`](Self::run_reinstall).
    pub fn inject_fault_at(&mut self, at_seconds: f64, fault: Fault) {
        self.shard.schedule_fault(at_seconds, fault);
    }

    /// Access a node (eKV tails read the log through this).
    pub fn node(&self, id: usize) -> &SimNode {
        &self.shard.nodes[id]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[SimNode] {
        &self.shard.nodes
    }

    /// Current virtual time in seconds.
    pub fn now_seconds(&self) -> f64 {
        seconds(self.shard.engine.now())
    }

    /// Engine wakeups processed so far (flow completions, timers, and
    /// control events) — the denominator of events/second comparisons
    /// against the federated engine.
    pub fn events(&self) -> u64 {
        self.shard.flow_events + self.shard.timer_events + self.shard.fault_events
    }

    /// Power on every node simultaneously and run until the cluster
    /// settles (all nodes `Up` or `Hung` with no pending events).
    ///
    /// Panics if the simulation stalls (flows active but starved of
    /// bandwidth forever) or a node exhausts every install server; use
    /// [`try_run_reinstall`](Self::try_run_reinstall) to handle those.
    pub fn run_reinstall(&mut self) -> ReinstallResult {
        self.try_run_reinstall().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`run_reinstall`](Self::run_reinstall): surfaces
    /// [`SimError::Stalled`] (via [`ReinstallError::Sim`]) when the
    /// cluster can never finish (e.g. a server died, retries are off, and
    /// nothing is scheduled to revive it), and
    /// [`ReinstallError::AllServersDown`] when the retrying install
    /// protocol gave up on a node.
    pub fn try_run_reinstall(&mut self) -> Result<ReinstallResult, ReinstallError> {
        let _run = self.trace.span("netsim.run");
        self.begin_reinstall();
        self.run_to_quiescence()
    }

    /// Power on every node with a fixed gap between machines — the
    /// §6.4 integration procedure, where "nodes are booted sequentially
    /// in order for insert-ethers to bind hostnames to physical
    /// locations". Node `i` powers on at `i × gap_seconds`.
    pub fn run_reinstall_staggered(&mut self, gap_seconds: f64) -> ReinstallResult {
        self.try_run_reinstall_staggered(gap_seconds).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`run_reinstall_staggered`](Self::run_reinstall_staggered).
    pub fn try_run_reinstall_staggered(
        &mut self,
        gap_seconds: f64,
    ) -> Result<ReinstallResult, ReinstallError> {
        let _run = self.trace.span("netsim.run");
        // Reuse the fault timer mechanism for delayed power-ons.
        for i in 0..self.shard.nodes.len() {
            if i == 0 {
                self.power_on(0);
            } else {
                self.shard.schedule_fault(gap_seconds * i as f64, Fault::PowerCycle(i));
            }
        }
        self.run_to_quiescence()
    }

    /// Power on a subset of nodes (rolling upgrades reinstall in waves).
    pub fn reinstall_subset(&mut self, ids: &[usize]) -> ReinstallResult {
        self.try_reinstall_subset(ids).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`reinstall_subset`](Self::reinstall_subset).
    pub fn try_reinstall_subset(
        &mut self,
        ids: &[usize],
    ) -> Result<ReinstallResult, ReinstallError> {
        let _run = self.trace.span("netsim.run");
        for &id in ids {
            self.power_on(id);
        }
        self.run_to_quiescence()
    }

    /// Power on every node simultaneously without running the simulation
    /// — callers that want to observe the run event by event (the chaos
    /// harness) follow with [`step_once`](Self::step_once).
    pub fn begin_reinstall(&mut self) {
        self.trace.set_time(self.shard.engine.now());
        for id in 0..self.shard.nodes.len() {
            self.power_on(id);
        }
    }

    fn power_on(&mut self, id: usize) {
        self.trace.mark("node.power_on", id as u64);
        self.shard.nodes[id].power_on(&mut self.shard.engine, &self.cfg);
    }

    /// Process exactly one simulation event. Returns `Ok(true)` if an
    /// event was handled (faults dispatched, node FSMs advanced), `Ok(false)`
    /// once the simulation is quiescent, and [`SimError::Stalled`] if the
    /// engine is idle while flows are still active — wedged, not done.
    pub fn step_once(&mut self) -> Result<bool, SimError> {
        let stepped = self.shard.step(&self.cfg, SimTime::MAX);
        if let Stepped::Quiet(_) = stepped {
            // Idle with flows still active means every remaining flow is
            // starved (rate 0) and no timer will ever change that — the
            // simulated cluster is wedged, not finished. Surface it
            // instead of letting drivers spin on Idle forever.
            return match self.shard.wedged_work() {
                0 => Ok(false),
                active => Err(SimError::Stalled { active_flows: active, shard: None }),
            };
        }
        // Telemetry on the hot path is the shard's plain-integer
        // tallies; everything that touches the tracer (clock store,
        // marks, state diffing) is gated on one cached bool, so with
        // events off — disabled tracer or no-op sink — the path is
        // identical to uninstrumented code. Counters hit the registry
        // once, at collection.
        if self.trace_events {
            self.trace.set_time(self.shard.engine.now());
            let nodes = &self.shard.nodes;
            let mark = |name, id: usize| self.trace.mark(name, id as u64);
            match stepped {
                Stepped::Fault(idx) => {
                    mark("netsim.fault", idx);
                    match self.shard.faults[idx] {
                        Fault::NodeHang(id) if id < nodes.len() => mark("node.hung", id),
                        Fault::PowerCycle(id) if id < nodes.len() => mark("node.power_on", id),
                        _ => {}
                    }
                }
                Stepped::Node { id, was } if nodes[id].state != was => match nodes[id].state {
                    NodeState::Up => mark("node.up", id),
                    NodeState::Hung => mark("node.hung", id),
                    _ => {}
                },
                _ => {}
            }
        }
        let delivered: f64 = self.shard.engine.link_bytes()[..self.cfg.n_servers].iter().sum();
        self.samples.push((seconds(self.shard.engine.now()), delivered));
        Ok(true)
    }

    fn run_to_quiescence(&mut self) -> Result<ReinstallResult, ReinstallError> {
        while self.step_once()? {}
        check_none_failed(self.shard.nodes.iter())?;
        Ok(self.collect_result())
    }

    /// Aggregate server utilization per time bucket: fraction of total
    /// server capacity in use during each `bucket_s`-second interval of
    /// the last run. Useful to see the saturation plateau during a
    /// concurrent reinstall.
    pub fn server_utilization(&self, bucket_s: f64) -> Vec<f64> {
        assert!(bucket_s > 0.0);
        let Some(&(end, _)) = self.samples.last() else { return Vec::new() };
        let capacity = self.cfg.server_capacity_bps * self.cfg.n_servers as f64;
        let n_buckets = (end / bucket_s).ceil() as usize;
        let mut per_bucket = vec![0.0f64; n_buckets];
        let mut prev = (0.0f64, 0.0f64);
        for &(t, bytes) in &self.samples {
            let moved = bytes - prev.1;
            // Spread the interval's bytes across the buckets it spans
            // (intervals are tiny relative to buckets, so proportional
            // attribution is exact enough for a timeline).
            let mid = 0.5 * (t + prev.0);
            let bucket = ((mid / bucket_s) as usize).min(n_buckets.saturating_sub(1));
            per_bucket[bucket] += moved;
            prev = (t, bytes);
        }
        per_bucket.into_iter().map(|bytes| (bytes / (bucket_s * capacity)).min(1.0)).collect()
    }

    /// Snapshot the per-node outcome of the run so far. The chaos
    /// harness uses this directly (it wants accounting even when a node
    /// failed); [`try_run_reinstall`](Self::try_run_reinstall) wraps it
    /// behind the typed-error check.
    pub fn collect_result(&self) -> ReinstallResult {
        let (engine, nodes) = (&self.shard.engine, &self.shard.nodes);
        if let Some(t) = &self.telemetry {
            // Publish cumulative totals — the shard's scheduler tallies
            // plus the nodes' own FSM counters, so the registry can never
            // disagree with the result it is collected alongside.
            // Counters receive the delta since the previous flush
            // (collecting twice adds nothing); gauges are set idempotently
            // and mirror the engine's settled-byte ledger bit for bit.
            let now = EventTally {
                flows: self.shard.flow_events,
                timers: self.shard.timer_events,
                faults: self.shard.fault_events,
                fetch_attempts: nodes.iter().map(|n| u64::from(n.fetch_attempts)).sum(),
                failovers: nodes.iter().map(|n| u64::from(n.failovers)).sum(),
                kickstart_requests: nodes.iter().map(|n| u64::from(n.kickstart_requests)).sum(),
                installs_completed: nodes.iter().map(|n| n.installs_completed as u64).sum(),
            };
            let prev = t.flushed.replace(now);
            t.flow_completions.add(now.flows - prev.flows);
            t.timers.add(now.timers - prev.timers);
            t.faults.add(now.faults - prev.faults);
            t.fetch_attempts.add(now.fetch_attempts - prev.fetch_attempts);
            t.failovers.add(now.failovers - prev.failovers);
            t.kickstart_requests.add(now.kickstart_requests - prev.kickstart_requests);
            t.installs_completed.add(now.installs_completed - prev.installs_completed);
            for (gauge, &bytes) in t.link_bytes.iter().zip(engine.link_bytes()) {
                gauge.set(bytes);
            }
            t.backoff_seconds.set(nodes.iter().map(|n| n.backoff_seconds).sum());
        }
        let server_bytes = engine.link_bytes()[..self.cfg.n_servers].to_vec();
        ReinstallResult::of(std::slice::from_ref(&self.shard), server_bytes)
    }

    /// The configuration this cluster was built with.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Bytes delivered so far per engine link (servers first, then
    /// cabinet uplinks).
    pub fn link_bytes(&self) -> &[f64] {
        self.shard.engine.link_bytes()
    }

    /// Base (healthy) capacity per engine link.
    pub fn link_base_capacities(&self) -> &[f64] {
        &self.shard.link_base
    }
}

/// Table I: total reinstall time for each concurrency level.
pub fn table1_sweep(ns: &[usize], seed: u64) -> Vec<(usize, f64)> {
    ns.iter()
        .map(|&n| {
            let cfg = SimConfig::paper_testbed(seed);
            let mut sim = ClusterSim::new(cfg, n);
            let result = sim.run_reinstall();
            assert_eq!(result.completed(), n, "all nodes must finish");
            (n, result.total_minutes())
        })
        .collect()
}

/// §6.3 micro-benchmark: "serially downloading all the RPMs a compute
/// node downloads during its reinstallation" — one client, no install
/// time, back-to-back fetches. Returns MB/s.
pub fn serial_download_benchmark(cfg: &SimConfig) -> f64 {
    let mut engine = Engine::new(vec![cfg.server_capacity_bps; cfg.n_servers]);
    let mut total_bytes = 0u64;
    for pkg in &cfg.packages {
        engine.start_flow(0, 0, pkg.transfer_bytes, cfg.per_stream_bps);
        total_bytes += pkg.transfer_bytes;
        // One flow at a time: drain it before the next request.
        while engine.step() != Wakeup::Idle {}
    }
    let elapsed = seconds(engine.now());
    (total_bytes as f64 / elapsed) / 1e6
}

/// Largest concurrency that still reinstalls at "full speed": mean
/// per-node time within `tolerance` of the single-node time. Doubling
/// search then binary search, as the curve is monotone.
pub fn max_full_speed_concurrency(
    make_cfg: &dyn Fn(u64) -> SimConfig,
    tolerance: f64,
    limit: usize,
) -> usize {
    let single = {
        let mut sim = ClusterSim::new(make_cfg(7), 1);
        sim.run_reinstall().mean_node_seconds()
    };
    let full_speed = |n: usize| -> bool {
        let mut sim = ClusterSim::new(make_cfg(7), n);
        let result = sim.run_reinstall();
        result.mean_node_seconds() <= single * (1.0 + tolerance)
    };
    // Doubling phase.
    let mut lo = 1usize;
    let mut hi = 2usize;
    while hi <= limit && full_speed(hi) {
        lo = hi;
        hi *= 2;
    }
    if hi > limit {
        return limit;
    }
    // Binary search in (lo, hi).
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if full_speed(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Timestamp type re-export for callers inspecting node logs.
pub type LogTime = SimTime;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeState;

    /// A reduced package set keeps unit tests fast; ratios are preserved.
    fn small_cfg(seed: u64) -> SimConfig {
        let mut cfg = SimConfig::paper_testbed(seed);
        // Collapse 162 packages into 12 with the same totals.
        let total_transfer: u64 = cfg.packages.iter().map(|p| p.transfer_bytes).sum();
        let total_installed: u64 = cfg.packages.iter().map(|p| p.installed_bytes).sum();
        cfg.packages = (0..12)
            .map(|i| crate::config::PackageWork {
                name: format!("bundle-{i}"),
                transfer_bytes: total_transfer / 12,
                installed_bytes: total_installed / 12,
            })
            .collect();
        cfg
    }

    #[test]
    fn single_node_takes_about_ten_minutes() {
        let mut sim = ClusterSim::new(small_cfg(1), 1);
        let result = sim.run_reinstall();
        let minutes = result.total_minutes();
        assert!((9.0..11.5).contains(&minutes), "single node took {minutes} min");
    }

    #[test]
    fn eight_nodes_are_nearly_flat() {
        let one = ClusterSim::new(small_cfg(1), 1).run_reinstall().total_minutes();
        let eight = ClusterSim::new(small_cfg(1), 8).run_reinstall().total_minutes();
        assert!(eight < one * 1.15, "8 nodes {eight} vs 1 node {one}");
    }

    #[test]
    fn thirty_two_nodes_degrade_gracefully() {
        let one = ClusterSim::new(small_cfg(1), 1).run_reinstall().total_minutes();
        let thirty_two = ClusterSim::new(small_cfg(1), 32).run_reinstall().total_minutes();
        // Table I: 10.3 → 13.7 minutes — graceful, strongly sub-linear
        // degradation (32× the demand, ~1.3× the time). Our fluid model
        // with an 11 MB/s server gives ~1.6-1.8×: the same shape, with
        // the residual gap documented in EXPERIMENTS.md (the paper's
        // absolute numbers imply >100 % wire utilization in places).
        let ratio = thirty_two / one;
        assert!((1.2..2.0).contains(&ratio), "32-node elongation {ratio}");
        // Sub-linearity: quadrupling nodes from 8 must not quadruple time.
        let eight = ClusterSim::new(small_cfg(1), 8).run_reinstall().total_minutes();
        assert!(thirty_two < eight * 2.2, "32 nodes {thirty_two} vs 8 nodes {eight}");
    }

    #[test]
    fn byte_conservation_across_cluster() {
        let cfg = small_cfg(1);
        let expected = cfg.node_transfer_bytes() as f64 * 4.0;
        let mut sim = ClusterSim::new(cfg, 4);
        let result = sim.run_reinstall();
        let delivered: f64 = result.server_bytes.iter().sum();
        assert!((delivered - expected).abs() < 1024.0, "{delivered} vs {expected}");
    }

    #[test]
    fn replicated_servers_share_load() {
        let mut cfg = small_cfg(1);
        cfg.n_servers = 2;
        let mut sim = ClusterSim::new(cfg, 8);
        let result = sim.run_reinstall();
        let a = result.server_bytes[0];
        let b = result.server_bytes[1];
        assert!((a - b).abs() / (a + b) < 0.05, "unbalanced: {a} vs {b}");
    }

    #[test]
    fn replication_recovers_full_speed_at_scale() {
        // 24 nodes on one Fast-Ethernet server is past the knee; on 3
        // servers it is comfortably inside it.
        let single = ClusterSim::new(small_cfg(1), 1).run_reinstall().mean_node_seconds();
        let mut congested = ClusterSim::new(small_cfg(1), 24);
        let mut replicated_cfg = small_cfg(1);
        replicated_cfg.n_servers = 3;
        let mut replicated = ClusterSim::new(replicated_cfg, 24);
        let congested_mean = congested.run_reinstall().mean_node_seconds();
        let replicated_mean = replicated.run_reinstall().mean_node_seconds();
        assert!(
            congested_mean > single * 1.15,
            "expected congestion: {congested_mean} vs {single}"
        );
        assert!(replicated_mean < single * 1.10, "replicas should restore: {replicated_mean}");
    }

    #[test]
    fn serial_benchmark_reports_7_to_8_mbps() {
        let cfg = SimConfig::paper_testbed(1);
        let mbps = serial_download_benchmark(&cfg);
        assert!((7.0..8.5).contains(&mbps), "micro-benchmark {mbps} MB/s");
    }

    #[test]
    fn server_failure_mid_install_stalls_then_recovers() {
        let mut sim = ClusterSim::new(small_cfg(1), 4);
        sim.inject_fault_at(120.0, Fault::ServerDown(0));
        sim.inject_fault_at(600.0, Fault::ServerUp(0));
        let result = sim.run_reinstall();
        assert_eq!(result.completed(), 4);
        // The outage pushes completion past the no-fault time by roughly
        // the outage length.
        let clean = ClusterSim::new(small_cfg(1), 4).run_reinstall().total_seconds;
        assert!(result.total_seconds > clean + 300.0);
    }

    #[test]
    fn hung_node_blocks_until_power_cycled() {
        let mut sim = ClusterSim::new(small_cfg(1), 2);
        sim.inject_fault_at(100.0, Fault::NodeHang(1));
        let result = sim.run_reinstall();
        assert_eq!(result.completed(), 1);
        assert!(result.per_node_seconds[1].is_none());
        assert_eq!(sim.node(1).state, NodeState::Hung);

        // The remote hard power cycle recovers it (§4).
        let mut sim = ClusterSim::new(small_cfg(1), 2);
        sim.inject_fault_at(100.0, Fault::NodeHang(1));
        sim.inject_fault_at(200.0, Fault::PowerCycle(1));
        let result = sim.run_reinstall();
        assert_eq!(result.completed(), 2);
    }

    #[test]
    fn subset_reinstall_leaves_others_untouched() {
        let mut sim = ClusterSim::new(small_cfg(1), 4);
        let result = sim.reinstall_subset(&[0, 2]);
        assert!(result.per_node_seconds[0].is_some());
        assert!(result.per_node_seconds[1].is_none());
        assert_eq!(sim.node(1).state, NodeState::Off);
        assert_eq!(sim.node(3).installs_completed, 0);
    }

    #[test]
    fn full_speed_search_finds_the_knee() {
        let make = |seed| small_cfg(seed);
        let knee = max_full_speed_concurrency(&make, 0.05, 32);
        // Paper model: ~7-8 concurrent full-speed reinstalls on Fast
        // Ethernet.
        assert!((5..=12).contains(&knee), "knee at {knee}");
    }

    #[test]
    fn staggered_boot_finishes_all_and_smooths_contention() {
        let n = 16;
        let simultaneous = ClusterSim::new(small_cfg(1), n).run_reinstall();
        let mut sim = ClusterSim::new(small_cfg(1), n);
        let staggered = sim.run_reinstall_staggered(30.0);
        assert_eq!(staggered.completed(), n);
        // The wall clock stretches by roughly the boot ramp...
        assert!(staggered.total_seconds > simultaneous.total_seconds);
        // ...but each individual node sees *less* contention: the mean
        // per-node time cannot be worse than the simultaneous storm.
        assert!(
            staggered.mean_node_seconds() <= simultaneous.mean_node_seconds() * 1.02,
            "staggered {} vs simultaneous {}",
            staggered.mean_node_seconds(),
            simultaneous.mean_node_seconds()
        );
    }

    #[test]
    fn cabinet_uplinks_become_the_bottleneck() {
        // A GigE server feeding 16 nodes: flat wiring reinstalls at full
        // speed, but cramming them behind one Fast-Ethernet cabinet
        // uplink moves the knee into the cabinet.
        let mut flat_cfg = small_cfg(1);
        flat_cfg.server_capacity_bps = crate::config::GIGE_SERVER_BPS;
        let flat = ClusterSim::new(flat_cfg.clone(), 16).run_reinstall();

        let racked_cfg = flat_cfg.clone().with_cabinets(16, 11.0e6);
        let racked = ClusterSim::new(racked_cfg, 16).run_reinstall();
        assert_eq!(racked.completed(), 16);
        assert!(
            racked.total_seconds > flat.total_seconds * 1.1,
            "racked {} vs flat {}",
            racked.total_seconds,
            flat.total_seconds
        );

        // Two cabinets of 8 relieve the pressure.
        let split_cfg = flat_cfg.clone().with_cabinets(8, 11.0e6);
        let split = ClusterSim::new(split_cfg, 16).run_reinstall();
        assert!(split.total_seconds < racked.total_seconds);
    }

    #[test]
    fn cabinet_nodes_are_named_by_rack() {
        let cfg = small_cfg(1).with_cabinets(4, 11.0e6);
        let sim = ClusterSim::new(cfg, 8);
        assert_eq!(sim.node(0).name, "compute-0-0");
        assert_eq!(sim.node(5).name, "compute-1-5");
    }

    #[test]
    fn utilization_timeline_shows_saturation_plateau() {
        let mut sim = ClusterSim::new(small_cfg(1), 32);
        sim.run_reinstall();
        let util = sim.server_utilization(30.0);
        assert!(!util.is_empty());
        // Physical bounds.
        assert!(util.iter().all(|u| (0.0..=1.0).contains(u)));
        // A 32-node storm saturates the server for a sustained stretch...
        let saturated = util.iter().filter(|u| **u > 0.95).count();
        assert!(saturated >= 3, "no plateau: {util:?}");
        // ...and the first bucket (everyone in POST) is quiet.
        assert!(util[0] < 0.25, "boot phase should be idle: {}", util[0]);
    }

    #[test]
    fn results_are_deterministic_per_seed() {
        let a = ClusterSim::new(small_cfg(3), 8).run_reinstall().total_seconds;
        let b = ClusterSim::new(small_cfg(3), 8).run_reinstall().total_seconds;
        assert_eq!(a, b);
    }

    #[test]
    fn permanent_server_failure_surfaces_stall_error() {
        // The server dies mid-reinstall and never comes back: nodes hold
        // flows that can never move. The driver must report the stall
        // instead of returning a bogus "finished" result.
        let mut sim = ClusterSim::new(small_cfg(1), 4);
        sim.inject_fault_at(120.0, Fault::ServerDown(0));
        match sim.try_run_reinstall() {
            Err(ReinstallError::Sim(SimError::Stalled { active_flows, shard })) => {
                assert!(active_flows > 0);
                assert_eq!(shard, None, "a flat ClusterSim run has no shard to blame");
            }
            other => panic!("expected a stall, got {other:?}"),
        }
    }

    #[test]
    fn server_up_without_down_is_a_noop() {
        // Regression: `ServerUp` used to blindly write the server
        // capacity into whatever link id it was given — corrupting a
        // cabinet uplink's capacity, or overwriting a degraded server's.
        let base = small_cfg(1).with_cabinets(4, 6.0e6);
        let clean = ClusterSim::new(base.clone(), 8).run_reinstall();

        let mut sim = ClusterSim::new(base.clone(), 8);
        // Link 1 is the first cabinet uplink (one server). Reviving it as
        // if it were a server must change nothing.
        sim.inject_fault_at(50.0, Fault::ServerUp(1));
        // Reviving the healthy server itself must also change nothing.
        sim.inject_fault_at(60.0, Fault::ServerUp(0));
        let result = sim.run_reinstall();
        assert_eq!(result.total_seconds, clean.total_seconds);
        assert_eq!(result.server_bytes, clean.server_bytes);
    }

    #[test]
    fn server_up_preserves_degraded_capacity() {
        // Down → degrade → up: the revived server must come back at the
        // degraded capacity, not full speed.
        let mut sim = ClusterSim::new(small_cfg(1), 4);
        sim.inject_fault_at(100.0, Fault::ServerDown(0));
        sim.inject_fault_at(150.0, Fault::LinkDegrade { link: 0, factor: 0.5 });
        sim.inject_fault_at(200.0, Fault::ServerUp(0));
        let result = sim.run_reinstall();
        assert_eq!(result.completed(), 4);
        let clean = ClusterSim::new(small_cfg(1), 4).run_reinstall();
        // Slower than clean by more than just the 100 s outage window,
        // because the post-outage capacity is halved.
        assert!(result.total_seconds > clean.total_seconds + 100.0);
    }

    #[test]
    fn link_degrade_slows_the_cluster() {
        let clean = ClusterSim::new(small_cfg(1), 8).run_reinstall();
        let mut sim = ClusterSim::new(small_cfg(1), 8);
        sim.inject_fault_at(10.0, Fault::LinkDegrade { link: 0, factor: 0.3 });
        let degraded = sim.run_reinstall();
        assert_eq!(degraded.completed(), 8);
        assert!(degraded.total_seconds > clean.total_seconds * 1.2);

        // Restoring the factor mid-run lands between the two.
        let mut sim = ClusterSim::new(small_cfg(1), 8);
        sim.inject_fault_at(10.0, Fault::LinkDegrade { link: 0, factor: 0.3 });
        sim.inject_fault_at(300.0, Fault::LinkDegrade { link: 0, factor: 1.0 });
        let restored = sim.run_reinstall();
        assert!(restored.total_seconds < degraded.total_seconds);
        assert!(restored.total_seconds > clean.total_seconds);
    }

    #[test]
    fn attempt_accounting_without_retries_counts_each_fetch_once() {
        let cfg = small_cfg(1);
        let fetches = 1 + cfg.packages.len() as u32; // kickstart + bundles
        let result = ClusterSim::new(cfg, 4).run_reinstall();
        assert_eq!(result.per_node_attempts, vec![fetches; 4]);
        assert_eq!(result.total_failovers(), 0);
        assert_eq!(result.total_backoff_seconds(), 0.0);
    }

    #[test]
    fn retries_ride_out_a_permanent_outage_via_failover() {
        // One server dies forever; with retries and a second replica the
        // cluster still completes — the paper's stall becomes a bounded
        // delay.
        let mut cfg = small_cfg(1);
        cfg.n_servers = 2;
        cfg.retry = Some(crate::config::RetryPolicy::standard());
        let mut sim = ClusterSim::new(cfg, 8);
        sim.inject_fault_at(120.0, Fault::ServerDown(0));
        let result = sim.try_run_reinstall().expect("failover must rescue the cluster");
        assert_eq!(result.completed(), 8);
        assert!(result.total_failovers() >= 1, "failover must be visible in accounting");
        assert!(result.total_backoff_seconds() > 0.0);
    }

    #[test]
    fn exhausted_retries_surface_all_servers_down() {
        let mut cfg = small_cfg(1);
        cfg.retry = Some(crate::config::RetryPolicy::standard());
        let mut sim = ClusterSim::new(cfg.clone(), 2);
        sim.inject_fault_at(120.0, Fault::ServerDown(0));
        match sim.try_run_reinstall() {
            Err(ReinstallError::AllServersDown { node, attempts }) => {
                assert!(node.starts_with("compute-"));
                assert_eq!(attempts, cfg.retry.unwrap().max_attempts(1));
            }
            other => panic!("expected AllServersDown, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "simulation stalled")]
    fn infallible_run_panics_on_stall() {
        let mut sim = ClusterSim::new(small_cfg(1), 2);
        sim.inject_fault_at(120.0, Fault::ServerDown(0));
        sim.run_reinstall();
    }

    #[test]
    fn fast_and_reference_clusters_agree() {
        // Whole-cluster differential check, with a server outage and a
        // power-cycled node thrown in: both schedulers must produce the
        // same completion profile, byte totals, and per-node logs.
        let run = |mode: EngineMode| {
            let mut cfg = small_cfg(5);
            cfg.n_servers = 2;
            let mut sim = ClusterSim::new_with_mode(cfg, 12, mode);
            sim.inject_fault_at(100.0, Fault::ServerDown(1));
            sim.inject_fault_at(260.0, Fault::ServerUp(1));
            sim.inject_fault_at(150.0, Fault::PowerCycle(3));
            let result = sim.try_run_reinstall().expect("completes");
            let logs: Vec<(SimTime, String)> = sim
                .nodes()
                .iter()
                .flat_map(|n| n.log.iter().map(|l| (l.at, l.text.clone())))
                .collect();
            (result, logs)
        };
        let (fast, fast_logs) = run(EngineMode::Fast);
        let (reference, ref_logs) = run(EngineMode::Reference);
        assert_eq!(fast.completed(), reference.completed());
        // Event timestamps are quantized to microseconds; allow the last
        // quantum to differ from floating-point accumulation order.
        assert!((fast.total_seconds - reference.total_seconds).abs() < 1e-3);
        for (f, r) in fast.server_bytes.iter().zip(&reference.server_bytes) {
            assert!((f - r).abs() < 16.0, "fast {f} vs ref {r}");
        }
        assert_eq!(fast_logs.len(), ref_logs.len());
        for ((fat, ftext), (rat, rtext)) in fast_logs.iter().zip(&ref_logs) {
            assert_eq!(ftext, rtext);
            assert!(fat.abs_diff(*rat) <= 1, "{fat} vs {rat} for {ftext}");
        }
    }
}
