//! The rolling-reinstall orchestrator (paper §5) under live batch load.
//!
//! The paper's flagship operational story is reinstalling a *production*
//! cluster to a new distribution without disturbing running jobs: a
//! "reinstall cluster" job drains nodes through the scheduler, reinstalls
//! them in waves sized to the install server's capacity (Table I's
//! ~7-node knee), and returns them to service as they complete — all
//! while newly arriving batch jobs keep landing on the untouched portion
//! of the cluster.
//!
//! [`run_rollout`] is that orchestrator. Per node it walks
//!
//! ```text
//! Untouched ──drain──▶ Draining ──job finishes──▶ drained
//!                                (Offline, idle)
//!      drained ──capacity slot──▶ Installing ──leg done──▶ Done (Free)
//! ```
//!
//! * **Drain** marks a node `Offline`; a running job keeps its node until
//!   it finishes — work is never killed. Drain targets are ranked by
//!   [`crate::scheduler::drain_candidates`] (idle first, then earliest
//!   job finish).
//! * **The capacity governor** caps concurrent install legs at
//!   [`RolloutConfig::capacity`] and additionally pre-drains up to
//!   [`RolloutConfig::drain_ahead`] nodes so a freed install slot never
//!   waits a full job walltime for its next node.
//! * **Install legs** come from a pluggable [`InstallBackend`] — a fixed
//!   duration for unit tests, or the netsim engine (flat or
//!   tiered/federated) calibrated at the current concurrency.
//! * **Faults** are first-class: install-server flaps freeze leg
//!   progress, job bursts stress the scheduler mid-drain, and straggler
//!   nodes model the watchdog-failover penalty.
//! * **Invariants** ([`RolloutInvariant`]) are checked at every event:
//!   no job killed, every node reinstalled exactly once, capacity never
//!   exceeded, rollout terminates.
//!
//! Seeded end-to-end scenarios come from [`RolloutPlan::generate`],
//! mirroring the netsim chaos harness: bounded randomness that always
//! converges, so any invariant violation is a real orchestrator bug.

use crate::scheduler;
use crate::server::{JobState, NodeState, PbsServer};
use crate::{PbsError, Result};
use rand::{rngs::StdRng, Rng, SeedableRng};
use rocks_trace::{Counter, Gauge, SpanGuard, Tracer};
use std::collections::BTreeMap;

/// Knobs for one rolling reinstall.
#[derive(Debug, Clone)]
pub struct RolloutConfig {
    /// Maximum concurrent install legs (the install server's measured
    /// capacity; the paper's Table I knee is ~7).
    pub capacity: usize,
    /// How many nodes beyond `capacity` may be draining at once, so a
    /// freed install slot finds a drained node waiting instead of a busy
    /// one. `0` drains strictly on demand.
    pub drain_ahead: usize,
    /// If set, a draining node whose job is still running this many
    /// seconds after its drain began fails the rollout with
    /// [`PbsError::DrainTimeout`].
    pub drain_timeout_s: Option<f64>,
}

impl RolloutConfig {
    /// A rollout at `capacity` concurrent installs with an equal drain
    /// look-ahead and no drain timeout.
    pub fn with_capacity(capacity: usize) -> RolloutConfig {
        let capacity = capacity.max(1);
        RolloutConfig { capacity, drain_ahead: capacity, drain_timeout_s: None }
    }

    /// The §5 "reinstall cluster" job as the paper submits it: drain the
    /// whole cluster at once and install every node the moment it comes
    /// free — maximum install-server contention, zero job throughput
    /// while it runs. Rolling configurations are measured against it.
    pub fn mass(n_nodes: usize) -> RolloutConfig {
        RolloutConfig { capacity: n_nodes.max(1), drain_ahead: n_nodes, drain_timeout_s: None }
    }
}

/// Cost of one install leg, as decided by the backend at start time.
#[derive(Debug, Clone, Copy)]
pub struct InstallLeg {
    /// Wall-clock seconds the leg takes (install-server time; frozen
    /// while the server is down).
    pub seconds: f64,
    /// Bytes the install server ships for this node.
    pub bytes: u64,
}

/// Where install legs come from. The orchestrator reports the current
/// concurrency (including the new leg) so backends can model the
/// install server's contention curve — that is exactly Table I.
pub trait InstallBackend {
    /// Called as `node`'s leg starts with `concurrent` legs in flight,
    /// counting this one.
    fn begin_install(&mut self, node: &str, concurrent: usize) -> InstallLeg;
}

/// Constant-cost backend: every leg takes the same time regardless of
/// concurrency.
#[derive(Debug, Clone, Copy)]
pub struct FixedInstall {
    /// Seconds per leg.
    pub seconds: f64,
    /// Bytes per leg.
    pub bytes: u64,
}

impl InstallBackend for FixedInstall {
    fn begin_install(&mut self, _node: &str, _concurrent: usize) -> InstallLeg {
        InstallLeg { seconds: self.seconds, bytes: self.bytes }
    }
}

/// A batch job arriving while the rollout runs.
#[derive(Debug, Clone)]
pub struct JobArrival {
    /// Submission time (absolute seconds on the server clock).
    pub at: f64,
    /// `qsub -N` name.
    pub name: String,
    /// Nodes requested.
    pub nodes: usize,
    /// Walltime in seconds.
    pub walltime_s: f64,
}

/// Faults injected into a rollout — the chaos vocabulary for §5.
#[derive(Debug, Clone)]
pub enum RolloutFault {
    /// The install server goes down at `down_at` and returns at `up_at`:
    /// in-flight legs freeze (the retrying install protocol holds the
    /// nodes), no new legs start, drains continue.
    ServerFlap {
        /// Outage start (seconds).
        down_at: f64,
        /// Outage end (seconds, must exceed `down_at`).
        up_at: f64,
    },
    /// A burst of identical jobs submitted at once mid-rollout.
    JobBurst {
        /// Submission time.
        at: f64,
        /// Number of jobs in the burst.
        jobs: usize,
        /// Nodes each job requests.
        nodes_each: usize,
        /// Walltime of each job.
        walltime_s: f64,
    },
    /// One node's install leg hits the watchdog and fails over, costing
    /// `extra_seconds` on top of the backend's leg time.
    Straggler {
        /// Index into the sorted node list (wrapped modulo the cluster
        /// size, so generated plans never miss).
        node_index: usize,
        /// Failover penalty in seconds.
        extra_seconds: f64,
    },
}

/// Read-only orchestrator state handed to invariants at every event.
#[derive(Debug)]
pub struct RolloutView<'a> {
    /// Current virtual time.
    pub now: f64,
    /// Install legs in flight.
    pub installing: usize,
    /// The configured capacity cap.
    pub capacity: usize,
    /// How many times each node's install has started.
    pub install_counts: &'a BTreeMap<String, u32>,
}

/// A property the rollout must preserve. `on_event` runs after every
/// orchestrator event; `at_end` runs once with the final report.
/// Violations are collected, not fatal — a chaos sweep reports all of
/// them.
pub trait RolloutInvariant {
    /// Name used in violation reports.
    fn name(&self) -> &'static str;
    /// Check at an event boundary.
    fn on_event(
        &mut self,
        _server: &PbsServer,
        _view: &RolloutView<'_>,
    ) -> std::result::Result<(), String> {
        Ok(())
    }
    /// Check once after the rollout completes.
    fn at_end(
        &mut self,
        _server: &PbsServer,
        _report: &RolloutReport,
    ) -> std::result::Result<(), String> {
        Ok(())
    }
}

/// One invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RolloutViolation {
    /// Which invariant failed.
    pub invariant: &'static str,
    /// What it saw.
    pub detail: String,
}

/// No job is ever killed by the rollout: nothing gets cancelled, and a
/// running job's nodes are only ever `Busy` or `Offline` (a `Down` or
/// `Free` node under a running job means a drain yanked it).
#[derive(Debug, Default)]
pub(crate) struct NoJobKilled;

impl RolloutInvariant for NoJobKilled {
    fn name(&self) -> &'static str {
        "no-job-killed"
    }
    fn on_event(
        &mut self,
        server: &PbsServer,
        _view: &RolloutView<'_>,
    ) -> std::result::Result<(), String> {
        for job in server.jobs() {
            match &job.state {
                JobState::Cancelled => {
                    return Err(format!("job {} ({}) was cancelled", job.id, job.name));
                }
                JobState::Running { nodes, .. } => {
                    for n in nodes {
                        let state = server.node_state(n).map_err(|e| e.to_string())?;
                        if !matches!(state, NodeState::Busy | NodeState::Offline) {
                            return Err(format!(
                                "job {} is running on node {n} in state {state:?}",
                                job.id
                            ));
                        }
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }
    fn at_end(
        &mut self,
        server: &PbsServer,
        _report: &RolloutReport,
    ) -> std::result::Result<(), String> {
        match server.jobs().find(|j| matches!(j.state, JobState::Cancelled)) {
            Some(j) => Err(format!("job {} ({}) ended cancelled", j.id, j.name)),
            None => Ok(()),
        }
    }
}

/// Every node is reinstalled exactly once.
#[derive(Debug, Default)]
pub(crate) struct ExactlyOnce;

impl RolloutInvariant for ExactlyOnce {
    fn name(&self) -> &'static str {
        "exactly-once"
    }
    fn on_event(
        &mut self,
        _server: &PbsServer,
        view: &RolloutView<'_>,
    ) -> std::result::Result<(), String> {
        match view.install_counts.iter().find(|(_, c)| **c > 1) {
            Some((n, c)) => Err(format!("node {n} install started {c} times")),
            None => Ok(()),
        }
    }
    fn at_end(
        &mut self,
        server: &PbsServer,
        report: &RolloutReport,
    ) -> std::result::Result<(), String> {
        for name in server.node_names() {
            match report.install_counts.get(&name) {
                Some(1) => {}
                Some(c) => return Err(format!("node {name} installed {c} times")),
                None => return Err(format!("node {name} was never reinstalled")),
            }
        }
        Ok(())
    }
}

/// Concurrent install legs never exceed the configured capacity.
#[derive(Debug, Default)]
pub(crate) struct CapRespected;

impl RolloutInvariant for CapRespected {
    fn name(&self) -> &'static str {
        "cap-respected"
    }
    fn on_event(
        &mut self,
        _server: &PbsServer,
        view: &RolloutView<'_>,
    ) -> std::result::Result<(), String> {
        if view.installing > view.capacity {
            Err(format!("{} legs in flight, capacity {}", view.installing, view.capacity))
        } else {
            Ok(())
        }
    }
}

/// The rollout finishes within an analytic worst-case bound (e.g.
/// [`RolloutPlan::worst_case_seconds`]) — a runaway event loop or a
/// starved wave shows up here.
#[derive(Debug)]
pub(crate) struct Termination {
    /// Upper bound on the makespan, in seconds.
    pub bound_seconds: f64,
}

impl RolloutInvariant for Termination {
    fn name(&self) -> &'static str {
        "termination"
    }
    fn at_end(
        &mut self,
        _server: &PbsServer,
        report: &RolloutReport,
    ) -> std::result::Result<(), String> {
        if report.makespan_seconds > self.bound_seconds {
            Err(format!(
                "makespan {:.1}s exceeds bound {:.1}s",
                report.makespan_seconds, self.bound_seconds
            ))
        } else {
            Ok(())
        }
    }
}

/// The standard invariant set: no job killed, exactly-once reinstall,
/// capacity respected, termination within `makespan_bound` seconds.
pub fn standard_rollout_invariants(makespan_bound: f64) -> Vec<Box<dyn RolloutInvariant>> {
    vec![
        Box::new(NoJobKilled),
        Box::new(ExactlyOnce),
        Box::new(CapRespected),
        Box::new(Termination { bound_seconds: makespan_bound }),
    ]
}

/// What one rollout did.
#[derive(Debug, Clone)]
pub struct RolloutReport {
    /// Seconds from rollout start to the last node's readmission.
    pub makespan_seconds: f64,
    /// Nodes in readmission order.
    pub reinstalled: Vec<String>,
    /// How many times each node's install leg started (exactly-once
    /// evidence).
    pub install_counts: BTreeMap<String, u32>,
    /// Seconds each node spent installing (flap pauses included).
    pub per_node_install_seconds: BTreeMap<String, f64>,
    /// Seconds each node spent draining before its install started.
    pub per_node_drain_seconds: BTreeMap<String, f64>,
    /// Bytes the install server shipped per node.
    pub per_node_bytes: BTreeMap<String, u64>,
    /// Total bytes shipped.
    pub total_bytes: u64,
    /// Highest concurrent-leg count observed.
    pub max_concurrent_installs: usize,
    /// Jobs the scheduler started during the rollout.
    pub jobs_started_during: u64,
    /// Jobs that completed during the rollout.
    pub jobs_completed_during: u64,
    /// Integral of busy nodes over the rollout window (node-seconds of
    /// useful work delivered while reinstalling — the throughput
    /// retention numerator).
    pub busy_node_seconds: f64,
    /// Seconds install legs sat frozen behind a server outage.
    pub flap_pause_seconds: f64,
    /// Straggler watchdog failovers charged.
    pub straggler_failovers: u64,
}

impl RolloutReport {
    /// Mean install-leg seconds across nodes.
    pub fn mean_install_seconds(&self) -> f64 {
        if self.per_node_install_seconds.is_empty() {
            return 0.0;
        }
        self.per_node_install_seconds.values().sum::<f64>()
            / self.per_node_install_seconds.len() as f64
    }
}

/// A completed rollout plus any invariant violations observed.
#[derive(Debug)]
pub struct RolloutOutcome {
    /// The measurements.
    pub report: RolloutReport,
    /// Invariant violations (empty on a clean run).
    pub violations: Vec<RolloutViolation>,
}

struct Telemetry {
    drained: Counter,
    install_started: Counter,
    readmitted: Counter,
    jobs_started: Counter,
    jobs_completed: Counter,
    bytes: Counter,
    stragglers: Counter,
    flap_pauses: Counter,
    installing: Gauge,
}

impl Telemetry {
    fn from(tracer: &Tracer) -> Option<Telemetry> {
        tracer.registry().map(|r| Telemetry {
            drained: r.counter("rollout.drained"),
            install_started: r.counter("rollout.install.started"),
            readmitted: r.counter("rollout.readmitted"),
            jobs_started: r.counter("rollout.jobs.started"),
            jobs_completed: r.counter("rollout.jobs.completed"),
            bytes: r.counter("rollout.bytes.total"),
            stragglers: r.counter("rollout.straggler.failovers"),
            flap_pauses: r.counter("rollout.flap.pauses"),
            installing: r.gauge("rollout.installing"),
        })
    }
}

const EPS: f64 = 1e-9;

fn micros(t: f64) -> u64 {
    (t * 1e6).max(0.0) as u64
}

/// Roll every node of `server` onto the new distribution without killing
/// running work, while the scheduler keeps placing arriving jobs on the
/// rest of the cluster. Returns the report and any invariant violations;
/// a typed error ([`PbsError::DrainTimeout`], or `BadState` on a stalled
/// event loop) aborts the rollout.
pub fn run_rollout(
    server: &mut PbsServer,
    backend: &mut dyn InstallBackend,
    cfg: &RolloutConfig,
    arrivals: &[JobArrival],
    faults: &[RolloutFault],
    invariants: &mut [Box<dyn RolloutInvariant>],
    tracer: &Tracer,
) -> Result<RolloutOutcome> {
    let node_order = server.node_names();
    let n = node_order.len();
    if n == 0 {
        return Err(PbsError::BadState("rollout on an empty cluster"));
    }
    if cfg.capacity == 0 {
        return Err(PbsError::BadState("rollout capacity must be at least 1"));
    }
    let start = server.now();

    // Expand bursts into the arrival stream and sort by time.
    let mut arrivals: Vec<JobArrival> = arrivals.to_vec();
    for fault in faults {
        if let RolloutFault::JobBurst { at, jobs, nodes_each, walltime_s } = fault {
            for i in 0..*jobs {
                arrivals.push(JobArrival {
                    at: *at,
                    name: format!("burst-{at:.0}-{i}"),
                    nodes: *nodes_each,
                    walltime_s: *walltime_s,
                });
            }
        }
    }
    for a in &mut arrivals {
        a.at = a.at.max(start);
    }
    arrivals.sort_by(|a, b| {
        a.at.partial_cmp(&b.at)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.name.cmp(&b.name))
    });

    // Install-server outage boundaries: (time, server_goes_down).
    let mut boundaries: Vec<(f64, bool)> = Vec::new();
    for fault in faults {
        if let RolloutFault::ServerFlap { down_at, up_at } = fault {
            if up_at > down_at {
                boundaries.push((down_at.max(start), true));
                boundaries.push((*up_at, false));
            }
        }
    }
    boundaries.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));

    // Straggler penalties, resolved to node names.
    let mut straggler_extra: BTreeMap<String, f64> = BTreeMap::new();
    for fault in faults {
        if let RolloutFault::Straggler { node_index, extra_seconds } = fault {
            *straggler_extra.entry(node_order[node_index % n].clone()).or_insert(0.0) +=
                extra_seconds.max(0.0);
        }
    }

    let tel = Telemetry::from(tracer);
    tracer.set_time(micros(start));

    let mut untouched: Vec<String> = node_order.clone();
    let mut draining: BTreeMap<String, f64> = BTreeMap::new(); // name → drain start
    let mut installing: BTreeMap<String, f64> = BTreeMap::new(); // name → seconds remaining
    let mut install_started_at: BTreeMap<String, f64> = BTreeMap::new();
    let mut spans: BTreeMap<String, SpanGuard> = BTreeMap::new();

    let mut report = RolloutReport {
        makespan_seconds: 0.0,
        reinstalled: Vec::new(),
        install_counts: BTreeMap::new(),
        per_node_install_seconds: BTreeMap::new(),
        per_node_drain_seconds: BTreeMap::new(),
        per_node_bytes: BTreeMap::new(),
        total_bytes: 0,
        max_concurrent_installs: 0,
        jobs_started_during: 0,
        jobs_completed_during: 0,
        busy_node_seconds: 0.0,
        flap_pause_seconds: 0.0,
        straggler_failovers: 0,
    };
    let mut violations: Vec<RolloutViolation> = Vec::new();

    let mut now = start;
    let mut arr_idx = 0usize;
    let mut boundary_idx = 0usize;
    let mut server_up = true;

    loop {
        // 1. Apply outage boundaries that are due.
        while boundary_idx < boundaries.len() && boundaries[boundary_idx].0 <= now + EPS {
            server_up = !boundaries[boundary_idx].1;
            boundary_idx += 1;
        }

        // 2. Readmit nodes whose install leg finished.
        let finished: Vec<String> = installing
            .iter()
            .filter(|(_, rem)| **rem <= EPS)
            .map(|(name, _)| name.clone())
            .collect();
        for name in finished {
            installing.remove(&name);
            server.set_node_state(&name, NodeState::Free)?;
            let began = install_started_at[&name];
            report.per_node_install_seconds.insert(name.clone(), now - began);
            report.reinstalled.push(name.clone());
            spans.remove(&name); // closes the install span at `now`
            if let Some(t) = &tel {
                t.readmitted.incr();
                t.installing.set(installing.len() as f64);
            }
        }

        // 3. Stuck-drain detection: a node still occupied past its drain
        //    deadline fails the rollout with a typed error.
        if let Some(timeout) = cfg.drain_timeout_s {
            for (name, since) in &draining {
                if now - since >= timeout - EPS && server.node_running_job(name) {
                    return Err(PbsError::DrainTimeout { node: name.clone() });
                }
            }
        }

        // 4. Admit arrivals that are due (oversized requests are
        //    rejected by qsub exactly as real PBS would).
        while arr_idx < arrivals.len() && arrivals[arr_idx].at <= now + EPS {
            let a = &arrivals[arr_idx];
            let _ = server.qsub(&a.name, a.nodes, a.walltime_s);
            arr_idx += 1;
        }

        // 5. Pick new drain targets up to capacity + drain_ahead.
        let out_now = draining.len() + installing.len();
        let target_out = cfg.capacity + cfg.drain_ahead;
        if out_now < target_out && !untouched.is_empty() {
            let picks = scheduler::drain_candidates(server, &untouched, target_out - out_now);
            for name in picks {
                untouched.retain(|u| u != &name);
                server.set_node_state(&name, NodeState::Offline)?;
                draining.insert(name.clone(), now);
                spans.insert(name.clone(), tracer.span("rollout.drain"));
                if let Some(t) = &tel {
                    t.drained.incr();
                }
            }
        }

        // 6. Start install legs on drained nodes while capacity allows
        //    (never during an install-server outage).
        while server_up && installing.len() < cfg.capacity {
            let Some(name) = draining
                .iter()
                .find(|(name, _)| !server.node_running_job(name))
                .map(|(name, _)| name.clone())
            else {
                break;
            };
            let since = draining.remove(&name).expect("just found");
            report.per_node_drain_seconds.insert(name.clone(), now - since);
            server.set_node_state(&name, NodeState::Down)?;
            let leg = backend.begin_install(&name, installing.len() + 1);
            let mut seconds = leg.seconds.max(1e-3);
            if let Some(extra) = straggler_extra.get(&name) {
                seconds += extra;
                report.straggler_failovers += 1;
                if let Some(t) = &tel {
                    t.stragglers.incr();
                }
            }
            installing.insert(name.clone(), seconds);
            install_started_at.insert(name.clone(), now);
            *report.install_counts.entry(name.clone()).or_insert(0) += 1;
            report.per_node_bytes.insert(name.clone(), leg.bytes);
            report.total_bytes += leg.bytes;
            report.max_concurrent_installs = report.max_concurrent_installs.max(installing.len());
            spans.insert(name.clone(), tracer.span("rollout.install"));
            if let Some(t) = &tel {
                t.install_started.incr();
                t.bytes.add(leg.bytes);
                t.installing.set(installing.len() as f64);
            }
        }

        // 7. Keep the batch system flowing on the rest of the cluster.
        let started = scheduler::schedule(server);
        report.jobs_started_during += started.len() as u64;
        if let Some(t) = &tel {
            t.jobs_started.add(started.len() as u64);
        }

        // 8. Invariants see every event boundary.
        let view = RolloutView {
            now,
            installing: installing.len(),
            capacity: cfg.capacity,
            install_counts: &report.install_counts,
        };
        for inv in invariants.iter_mut() {
            if let Err(detail) = inv.on_event(server, &view) {
                violations.push(RolloutViolation { invariant: inv.name(), detail });
            }
        }

        // 9. Done?
        if untouched.is_empty() && draining.is_empty() && installing.is_empty() {
            break;
        }

        // 10. Find the next event.
        let mut next: Option<f64> = None;
        let mut consider = |t: f64| {
            if t > now + EPS {
                next = Some(next.map_or(t, |cur: f64| cur.min(t)));
            }
        };
        if let Some(t) = server.next_completion() {
            consider(t);
        }
        if server_up {
            if let Some(rem) =
                installing.values().copied().min_by(|a, b| a.partial_cmp(b).expect("finite"))
            {
                consider(now + rem);
            }
        }
        if arr_idx < arrivals.len() {
            consider(arrivals[arr_idx].at);
        }
        if boundary_idx < boundaries.len() {
            consider(boundaries[boundary_idx].0);
        }
        if let Some(timeout) = cfg.drain_timeout_s {
            for (name, since) in &draining {
                if server.node_running_job(name) {
                    consider(since + timeout);
                }
            }
        }
        let Some(t) = next else {
            return Err(PbsError::BadState("rollout stalled with no pending events"));
        };

        // 11. Advance: integrate throughput, tick install legs (frozen
        //     while the install server is down), complete jobs.
        let dt = t - now;
        report.busy_node_seconds += server.nodes_in_state(NodeState::Busy).len() as f64 * dt;
        if server_up {
            for rem in installing.values_mut() {
                *rem = (*rem - dt).max(0.0);
            }
        } else if !installing.is_empty() {
            report.flap_pause_seconds += dt;
            if let Some(tl) = &tel {
                tl.flap_pauses.incr();
            }
        }
        let completed = server.advance_to(t);
        report.jobs_completed_during += completed.len() as u64;
        if let Some(tl) = &tel {
            tl.jobs_completed.add(completed.len() as u64);
        }
        now = t;
        tracer.set_time(micros(now));
    }

    report.makespan_seconds = now - start;
    for inv in invariants.iter_mut() {
        if let Err(detail) = inv.at_end(server, &report) {
            violations.push(RolloutViolation { invariant: inv.name(), detail });
        }
    }
    Ok(RolloutOutcome { report, violations })
}

/// One invariant violation tagged with the seed that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeededViolation {
    /// The plan seed.
    pub seed: u64,
    /// Which invariant failed (or `"no-error"` for an aborted run).
    pub invariant: &'static str,
    /// What it saw.
    pub detail: String,
}

/// Outcome of running one generated plan.
#[derive(Debug)]
pub struct RolloutRecord {
    /// The plan seed.
    pub seed: u64,
    /// The report, if the rollout ran to completion.
    pub report: Option<RolloutReport>,
    /// Every violation observed (errors count as `"no-error"`).
    pub violations: Vec<SeededViolation>,
}

/// A seeded, bounded, always-convergent rollout scenario — the chaos
/// harness for §5. Same seed, same plan, same outcome.
#[derive(Debug, Clone)]
pub struct RolloutPlan {
    /// Generator seed.
    pub seed: u64,
    /// Cluster size.
    pub n_nodes: usize,
    /// Install capacity.
    pub capacity: usize,
    /// Drain look-ahead.
    pub drain_ahead: usize,
    /// Fixed install-leg seconds.
    pub install_seconds: f64,
    /// Fixed install-leg bytes.
    pub install_bytes: u64,
    /// Jobs queued (and scheduled) before the rollout starts:
    /// `(nodes, walltime_s)`.
    pub initial_jobs: Vec<(usize, f64)>,
    /// Jobs arriving mid-rollout.
    pub arrivals: Vec<JobArrival>,
    /// Injected faults.
    pub faults: Vec<RolloutFault>,
    /// Optional drain deadline (generated only with enough slack that a
    /// healthy drain always beats it).
    pub drain_timeout_s: Option<f64>,
}

/// Walltimes generated plans may use (the drain-timeout slack and the
/// termination bound both lean on this cap).
const PLAN_MAX_WALLTIME: f64 = 600.0;

impl RolloutPlan {
    /// Generate a plan from a seed. All randomness is bounded so every
    /// plan converges: walltimes ≤ 600 s, flaps are
    /// finite and non-overlapping, stragglers add bounded penalties.
    pub fn generate(seed: u64) -> RolloutPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_nodes = rng.gen_range(4..=32usize);
        let capacity = rng.gen_range(1..=8usize).min(n_nodes);
        let drain_ahead = rng.gen_range(0..=capacity);
        let install_seconds = rng.gen_range(120.0..900.0);
        let install_bytes = rng.gen_range(100_000_000..400_000_000u64);

        let max_job_nodes = (n_nodes / 2).max(1);
        let job_mix = |rng: &mut StdRng| {
            (rng.gen_range(1..=max_job_nodes), rng.gen_range(30.0..PLAN_MAX_WALLTIME))
        };

        let initial_jobs: Vec<(usize, f64)> =
            (0..rng.gen_range(0..=n_nodes)).map(|_| job_mix(&mut rng)).collect();

        let arrivals: Vec<JobArrival> = (0..rng.gen_range(0..=8usize))
            .map(|i| {
                let (nodes, walltime_s) = job_mix(&mut rng);
                JobArrival {
                    at: rng.gen_range(0.0..1500.0),
                    name: format!("arrival-{i}"),
                    nodes,
                    walltime_s,
                }
            })
            .collect();

        let mut faults = Vec::new();
        // Non-overlapping server flaps.
        let mut cursor = 0.0;
        for _ in 0..rng.gen_range(0..=2usize) {
            let down_at = cursor + rng.gen_range(10.0..900.0);
            let up_at = down_at + rng.gen_range(30.0..300.0);
            faults.push(RolloutFault::ServerFlap { down_at, up_at });
            cursor = up_at;
        }
        if rng.gen_bool(0.5) {
            faults.push(RolloutFault::JobBurst {
                at: rng.gen_range(0.0..600.0),
                jobs: rng.gen_range(2..=6),
                nodes_each: rng.gen_range(1..=max_job_nodes),
                walltime_s: rng.gen_range(30.0..300.0),
            });
        }
        for _ in 0..rng.gen_range(0..=2usize) {
            faults.push(RolloutFault::Straggler {
                node_index: rng.gen_range(0..n_nodes),
                extra_seconds: rng.gen_range(60.0..600.0),
            });
        }

        // A third of plans exercise the drain-deadline machinery, with
        // enough slack (> max walltime) that it never fires spuriously.
        let drain_timeout_s = if rng.gen_bool(0.3) {
            Some(PLAN_MAX_WALLTIME * 2.0 + rng.gen_range(0.0..600.0))
        } else {
            None
        };

        RolloutPlan {
            seed,
            n_nodes,
            capacity,
            drain_ahead,
            install_seconds,
            install_bytes,
            initial_jobs,
            arrivals,
            faults,
            drain_timeout_s,
        }
    }

    /// A generous analytic bound on the makespan: even a fully serial
    /// rollout (one node at a time, each waiting out a full walltime and
    /// a full install plus every straggler penalty and every outage)
    /// finishes inside this.
    pub fn worst_case_seconds(&self) -> f64 {
        let flap_total: f64 = self
            .faults
            .iter()
            .map(|f| match f {
                RolloutFault::ServerFlap { down_at, up_at } => (up_at - down_at).max(0.0),
                _ => 0.0,
            })
            .sum();
        let straggler_total: f64 = self
            .faults
            .iter()
            .map(|f| match f {
                RolloutFault::Straggler { extra_seconds, .. } => extra_seconds.max(0.0),
                _ => 0.0,
            })
            .sum();
        let last_arrival = self.arrivals.iter().map(|a| a.at).fold(0.0f64, f64::max);
        self.n_nodes as f64 * (PLAN_MAX_WALLTIME + self.install_seconds)
            + straggler_total
            + flap_total
            + last_arrival
            + PLAN_MAX_WALLTIME
            + 3600.0
    }

    /// Run the plan against a fresh cluster with the standard invariants
    /// and a fixed-cost backend. After the rollout, the scheduler runs
    /// the remaining queue to completion so `at_end` checks see the
    /// settled system. Errors become `"no-error"` violations.
    pub fn run(&self) -> RolloutRecord {
        self.run_traced(&Tracer::disabled())
    }

    /// [`RolloutPlan::run`] with an explicit tracer (golden-trace tests).
    pub fn run_traced(&self, tracer: &Tracer) -> RolloutRecord {
        let mut server = PbsServer::new();
        for i in 0..self.n_nodes {
            server.add_node(&format!("compute-0-{i}"));
        }
        for (i, (nodes, walltime_s)) in self.initial_jobs.iter().enumerate() {
            let _ = server.qsub(&format!("initial-{i}"), *nodes, *walltime_s);
        }
        scheduler::schedule(&mut server);

        let cfg = RolloutConfig {
            capacity: self.capacity,
            drain_ahead: self.drain_ahead,
            drain_timeout_s: self.drain_timeout_s,
        };
        let mut backend = FixedInstall { seconds: self.install_seconds, bytes: self.install_bytes };
        let mut invariants = standard_rollout_invariants(self.worst_case_seconds());

        match run_rollout(
            &mut server,
            &mut backend,
            &cfg,
            &self.arrivals,
            &self.faults,
            &mut invariants,
            tracer,
        ) {
            Ok(outcome) => {
                scheduler::run_to_completion(&mut server);
                let violations = outcome
                    .violations
                    .into_iter()
                    .map(|v| SeededViolation {
                        seed: self.seed,
                        invariant: v.invariant,
                        detail: v.detail,
                    })
                    .collect();
                RolloutRecord { seed: self.seed, report: Some(outcome.report), violations }
            }
            Err(e) => RolloutRecord {
                seed: self.seed,
                report: None,
                violations: vec![SeededViolation {
                    seed: self.seed,
                    invariant: "no-error",
                    detail: e.to_string(),
                }],
            },
        }
    }
}

/// Run plans for every seed in `seeds` and collect all violations.
pub fn run_rollout_sweep(seeds: std::ops::Range<u64>) -> Vec<SeededViolation> {
    seeds.flat_map(|seed| RolloutPlan::generate(seed).run().violations).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::schedule;

    fn server(n: usize) -> PbsServer {
        let mut s = PbsServer::new();
        for i in 0..n {
            s.add_node(&format!("compute-0-{i}"));
        }
        s
    }

    fn run_simple(
        server: &mut PbsServer,
        cfg: &RolloutConfig,
        arrivals: &[JobArrival],
        faults: &[RolloutFault],
    ) -> RolloutOutcome {
        let mut backend = FixedInstall { seconds: 600.0, bytes: 1_000 };
        let mut invariants = standard_rollout_invariants(1e9);
        run_rollout(
            server,
            &mut backend,
            cfg,
            arrivals,
            faults,
            &mut invariants,
            &Tracer::disabled(),
        )
        .expect("rollout runs")
    }

    #[test]
    fn idle_cluster_rolls_in_waves_of_capacity() {
        let mut s = server(8);
        let out = run_simple(&mut s, &RolloutConfig::with_capacity(4), &[], &[]);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        // Two waves of 4 nodes × 600 s.
        assert!((out.report.makespan_seconds - 1200.0).abs() < 1e-6);
        assert_eq!(out.report.max_concurrent_installs, 4);
        assert_eq!(out.report.reinstalled.len(), 8);
        assert_eq!(s.nodes_in_state(NodeState::Free).len(), 8);
    }

    #[test]
    fn zero_job_mass_rollout_ends_after_exactly_one_leg() {
        // With no competing jobs and full capacity the §5 job is one
        // install leg: every node starts at once, each leg takes the
        // backend's time, the roll ends when they do. 600.0 is also what
        // the drain-and-reinstall loop this orchestrator replaced
        // returned for the same cluster.
        const ONE_LEG_END: f64 = 600.0;
        let n = 8;
        let mut s = server(n);
        let out = run_simple(&mut s, &RolloutConfig::mass(n), &[], &[]);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!((out.report.makespan_seconds - ONE_LEG_END).abs() < 1e-6);
        let mut rolled = out.report.reinstalled.clone();
        rolled.sort();
        assert_eq!(rolled, s.node_names());
        assert!(out
            .report
            .per_node_install_seconds
            .values()
            .all(|secs| (secs - 600.0).abs() < 1e-6));
        assert_eq!(s.nodes_in_state(NodeState::Free).len(), n);
    }

    #[test]
    fn mass_rollout_never_disturbs_a_running_job() {
        // A drain deadline the job beats (800 s > 500 s) changes nothing.
        for drain_timeout_s in [None, Some(800.0)] {
            let mut s = server(4);
            let job = s.qsub("science", 2, 500.0).unwrap();
            schedule(&mut s);
            let cfg = RolloutConfig { drain_timeout_s, ..RolloutConfig::mass(4) };
            let out = run_simple(&mut s, &cfg, &[], &[]);
            assert!(out.violations.is_empty(), "{:?}", out.violations);
            // The job ran its full walltime...
            assert_eq!(s.job(job).unwrap().state, JobState::Done { finished_at: 500.0 });
            // ...the idle pair installed meanwhile, the job's pair after
            // it: 500 s of job + 600 s of reinstall.
            assert!((out.report.makespan_seconds - 1100.0).abs() < 1e-6);
            let mut drains: Vec<f64> =
                out.report.per_node_drain_seconds.values().copied().collect();
            drains.sort_by(f64::total_cmp);
            assert_eq!(drains, vec![0.0, 0.0, 500.0, 500.0]);
            assert_eq!(s.nodes_in_state(NodeState::Free).len(), 4);
        }
    }

    #[test]
    fn queued_work_starts_the_instant_its_nodes_return() {
        let mut s = server(4);
        s.qsub("running", 2, 500.0).unwrap();
        schedule(&mut s);
        // Submitted as the drain begins: every node is already draining.
        let pair = s.qsub("pair", 2, 300.0).unwrap();
        let whole = s.qsub("whole", 4, 50.0).unwrap();
        let out = run_simple(&mut s, &RolloutConfig::mass(4), &[], &[]);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!((out.report.makespan_seconds - 1100.0).abs() < 1e-6);
        // The idle pair is back at 600 s and `pair` starts on it then,
        // not at the next job or install event.
        assert_eq!(s.job(pair).unwrap().state, JobState::Done { finished_at: 900.0 });
        // The last nodes return at 1,100 s and `whole` is already placed
        // when the rollout hands the cluster back.
        assert!(matches!(
            &s.job(whole).unwrap().state,
            JobState::Running { started_at, .. } if (started_at - 1100.0).abs() < 1e-6
        ));
        assert!(s.queued().is_empty());
        assert_eq!(out.report.jobs_started_during, 2);
    }

    #[test]
    fn node_down_at_the_start_is_reinstalled_and_returned() {
        // A node in an unknown state gets the paper's answer: reinstall.
        let mut s = server(4);
        s.set_node_state("compute-0-3", NodeState::Down).unwrap();
        let out = run_simple(&mut s, &RolloutConfig::mass(4), &[], &[]);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!((out.report.makespan_seconds - 600.0).abs() < 1e-6);
        assert_eq!(out.report.install_counts["compute-0-3"], 1);
        assert_eq!(s.nodes_in_state(NodeState::Free).len(), 4);
    }

    #[test]
    fn running_jobs_finish_and_new_jobs_flow_during_rollout() {
        let mut s = server(8);
        let pre = s.qsub("pre", 2, 500.0).unwrap();
        schedule(&mut s);
        let arrivals = vec![
            JobArrival { at: 100.0, name: "mid-1".into(), nodes: 2, walltime_s: 300.0 },
            JobArrival { at: 200.0, name: "mid-2".into(), nodes: 1, walltime_s: 100.0 },
        ];
        let out = run_simple(&mut s, &RolloutConfig::with_capacity(2), &arrivals, &[]);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(matches!(s.job(pre).unwrap().state, JobState::Done { .. }));
        assert!(out.report.jobs_started_during >= 2, "{}", out.report.jobs_started_during);
        assert!(out.report.busy_node_seconds > 0.0);
        assert_eq!(out.report.reinstalled.len(), 8);
    }

    #[test]
    fn server_flap_freezes_install_legs() {
        let n = 4;
        let mut quiet = server(n);
        let base = run_simple(&mut quiet, &RolloutConfig::mass(n), &[], &[]);

        let mut s = server(n);
        let flap = RolloutFault::ServerFlap { down_at: 100.0, up_at: 350.0 };
        let out = run_simple(&mut s, &RolloutConfig::mass(n), &[], &[flap]);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        // The 250 s outage pushes the makespan out by exactly 250 s.
        assert!(
            (out.report.makespan_seconds - (base.report.makespan_seconds + 250.0)).abs() < 1e-6,
            "flap makespan {}",
            out.report.makespan_seconds
        );
        assert!((out.report.flap_pause_seconds - 250.0).abs() < 1e-6);
    }

    #[test]
    fn straggler_penalty_is_charged_and_counted() {
        let n = 4;
        let mut s = server(n);
        let fault = RolloutFault::Straggler { node_index: 1, extra_seconds: 400.0 };
        let out = run_simple(&mut s, &RolloutConfig::mass(n), &[], &[fault]);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.report.straggler_failovers, 1);
        assert!((out.report.makespan_seconds - 1000.0).abs() < 1e-6);
        assert!(
            (out.report.per_node_install_seconds["compute-0-1"] - 1000.0).abs() < 1e-6,
            "straggler leg {:?}",
            out.report.per_node_install_seconds
        );
    }

    #[test]
    fn drain_timeout_names_the_wedged_node() {
        let mut s = server(4);
        // A job that runs far past the drain deadline.
        let j = s.qsub("wedged", 1, 50_000.0).unwrap();
        schedule(&mut s);
        let occupied = match &s.job(j).unwrap().state {
            JobState::Running { nodes, .. } => nodes[0].clone(),
            _ => unreachable!(),
        };
        let mut cfg = RolloutConfig::with_capacity(4);
        cfg.drain_timeout_s = Some(900.0);
        let mut backend = FixedInstall { seconds: 600.0, bytes: 0 };
        let err = run_rollout(
            &mut s,
            &mut backend,
            &cfg,
            &[],
            &[],
            &mut standard_rollout_invariants(1e9),
            &Tracer::disabled(),
        )
        .unwrap_err();
        assert_eq!(err, PbsError::DrainTimeout { node: occupied });
        // The deadline is an event: the clock advanced to it rather than
        // erroring at t=0 or waiting out the job.
        assert!((s.now() - 900.0).abs() < 1e-6, "now {}", s.now());
    }

    #[test]
    fn broken_invariant_is_caught_by_the_harness() {
        // An obviously false invariant must surface as a violation —
        // proof the harness actually checks things.
        struct InstallsAreInstant;
        impl RolloutInvariant for InstallsAreInstant {
            fn name(&self) -> &'static str {
                "installs-are-instant"
            }
            fn at_end(
                &mut self,
                _server: &PbsServer,
                report: &RolloutReport,
            ) -> std::result::Result<(), String> {
                if report.makespan_seconds > 0.0 {
                    Err(format!("makespan {}", report.makespan_seconds))
                } else {
                    Ok(())
                }
            }
        }
        let mut s = server(4);
        let mut backend = FixedInstall { seconds: 600.0, bytes: 0 };
        let mut invariants: Vec<Box<dyn RolloutInvariant>> = vec![Box::new(InstallsAreInstant)];
        let out = run_rollout(
            &mut s,
            &mut backend,
            &RolloutConfig::mass(4),
            &[],
            &[],
            &mut invariants,
            &Tracer::disabled(),
        )
        .unwrap();
        assert_eq!(out.violations.len(), 1);
        assert_eq!(out.violations[0].invariant, "installs-are-instant");
    }

    #[test]
    fn generated_plans_are_deterministic() {
        for seed in [0u64, 7, 42] {
            let a = RolloutPlan::generate(seed).run();
            let b = RolloutPlan::generate(seed).run();
            let (ra, rb) = (a.report.expect("ran"), b.report.expect("ran"));
            assert_eq!(ra.makespan_seconds.to_bits(), rb.makespan_seconds.to_bits());
            assert_eq!(ra.reinstalled, rb.reinstalled);
            assert_eq!(ra.total_bytes, rb.total_bytes);
        }
    }

    #[test]
    fn trace_counters_account_for_every_node() {
        let tracer = Tracer::ring_sim(4096);
        let mut s = server(6);
        s.qsub("w", 2, 300.0).unwrap();
        schedule(&mut s);
        let mut backend = FixedInstall { seconds: 600.0, bytes: 10 };
        let out = run_rollout(
            &mut s,
            &mut backend,
            &RolloutConfig::with_capacity(2),
            &[],
            &[],
            &mut standard_rollout_invariants(1e9),
            &tracer,
        )
        .unwrap();
        assert!(out.violations.is_empty());
        let snap = tracer.registry().expect("ring tracer has a registry").snapshot();
        assert_eq!(snap.counter("rollout.drained"), 6);
        assert_eq!(snap.counter("rollout.install.started"), 6);
        assert_eq!(snap.counter("rollout.readmitted"), 6);
        assert_eq!(snap.counter("rollout.bytes.total"), 60);
    }
}
