//! Seeded, deterministic chaos harness for the reinstall pipeline.
//!
//! The paper's central claim (§4, §6) is that full reinstallation is a
//! *safe* management primitive: it converges even when install servers
//! die mid-wave, nodes hang, and power is cycled under load. A handful of
//! hand-written scenarios cannot cover that claim's state space. This
//! module samples it: a [`ChaosPlan`] generated from a single `u64` seed
//! draws a randomized topology (node count, server replicas, optional
//! cabinet tier, bundle count) and a fault schedule (server outages and
//! flaps, permanent server loss, node hangs, power cycles, link
//! degradation), drives the fast engine through it, and checks a
//! pluggable set of [`Invariant`]s after every event and at the end of
//! the run:
//!
//! * **byte conservation** — every completed install moved a full image,
//!   and no link delivered more than its capacity integral permits,
//! * **eventual completion** — every *recoverable* node (one not hung
//!   without a later power cycle) reaches `Up`, within an analytically
//!   computed worst-case bound,
//! * **monotone phases** — a node's install phase never goes backwards
//!   within one power-on life,
//! * **fast/reference engine agreement** — on a sampled subset of plans
//!   both schedulers produce the same outcome.
//!
//! Plans are generated so that convergence is *guaranteed*, not merely
//! likely: flaps always recover, at most `n_servers − 1` replicas are
//! lost permanently (one server is protected), degradation factors are
//! bounded away from zero, fetch deadlines exceed the worst legitimate
//! (congested + degraded) transfer time, and the retry budget outlasts
//! the maximum cumulative outage. Any seed that violates an invariant is
//! therefore a real bug, and — everything being seeded — an instantly
//! reproducible one.

use crate::cluster::{ClusterSim, Fault, ReinstallResult};
use crate::config::{RetryPolicy, SimConfig};
use crate::engine::EngineMode;
use crate::node::NodeState;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Upper bound on the cumulative server-outage time one plan may
/// schedule; the retry budget is sized to outlast it.
const MAX_TOTAL_FLAP_SECONDS: f64 = 900.0;

/// One seeded chaos scenario: topology plus fault schedule plus the
/// retry policy that makes it convergent.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPlan {
    /// The seed everything was derived from.
    pub seed: u64,
    /// Compute nodes in the cluster.
    pub n_nodes: usize,
    /// Replicated install servers.
    pub n_servers: usize,
    /// Package bundles per node (see [`SimConfig::bundled`]).
    pub bundles: usize,
    /// Optional cabinet tier: `(nodes per cabinet, uplink bytes/s)`.
    pub cabinet: Option<(usize, f64)>,
    /// The retrying install protocol's policy, sized so the plan is
    /// guaranteed to converge.
    pub retry: RetryPolicy,
    /// Fault schedule: `(virtual seconds, fault)`, in generation order.
    pub faults: Vec<(f64, Fault)>,
}

impl ChaosPlan {
    /// Deterministically generate the plan for `seed`.
    pub fn generate(seed: u64) -> ChaosPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_nodes = rng.gen_range(2..=16usize);
        let n_servers = rng.gen_range(1..=3usize);
        let bundles = rng.gen_range(3..=7usize);
        let cabinet = if rng.gen_bool(0.25) {
            Some((rng.gen_range(2..=8usize), rng.gen_range(6.0..=11.0) * 1e6))
        } else {
            None
        };
        // One replica is never permanently lost, so failover always has
        // somewhere to land.
        let protected_server = rng.gen_range(0..n_servers);
        let n_cabinets = cabinet.map_or(0, |(k, _)| n_nodes.div_ceil(k));
        let n_links = n_servers + n_cabinets;

        let mut faults: Vec<(f64, Fault)> = Vec::new();
        let mut flap_seconds = 0.0f64;
        let mut min_factor = 1.0f64;
        let n_faults = rng.gen_range(0..=6usize);
        for _ in 0..n_faults {
            match rng.gen_range(0..100u32) {
                // Server flap: down, then guaranteed back up.
                0..=34 => {
                    let s = rng.gen_range(0..n_servers);
                    let t = rng.gen_range(10.0..600.0);
                    let d = rng.gen_range(30.0..=300.0);
                    if flap_seconds + d > MAX_TOTAL_FLAP_SECONDS {
                        continue;
                    }
                    flap_seconds += d;
                    faults.push((t, Fault::ServerDown(s)));
                    faults.push((t + d, Fault::ServerUp(s)));
                }
                // Permanent server loss — never the protected replica.
                35..=49 => {
                    if n_servers < 2 {
                        continue;
                    }
                    let mut s = rng.gen_range(0..n_servers);
                    if s == protected_server {
                        s = (s + 1) % n_servers;
                    }
                    let t = rng.gen_range(10.0..600.0);
                    faults.push((t, Fault::ServerDown(s)));
                }
                // Node hang; usually the PDU power-cycles it later.
                50..=69 => {
                    let node = rng.gen_range(0..n_nodes);
                    let t = rng.gen_range(10.0..500.0);
                    faults.push((t, Fault::NodeHang(node)));
                    if rng.gen_bool(0.7) {
                        let dt = rng.gen_range(30.0..=240.0);
                        faults.push((t + dt, Fault::PowerCycle(node)));
                    }
                }
                // Spurious power cycle racing the install.
                70..=84 => {
                    let node = rng.gen_range(0..n_nodes);
                    let t = rng.gen_range(10.0..650.0);
                    faults.push((t, Fault::PowerCycle(node)));
                }
                // Link degradation (server or cabinet uplink), sometimes
                // restored later.
                _ => {
                    let link = rng.gen_range(0..n_links);
                    let factor = rng.gen_range(0.25..=0.9);
                    min_factor = min_factor.min(factor);
                    let t = rng.gen_range(10.0..500.0);
                    faults.push((t, Fault::LinkDegrade { link, factor }));
                    if rng.gen_bool(0.5) {
                        let dt = rng.gen_range(60.0..=300.0);
                        faults.push((t + dt, Fault::LinkDegrade { link, factor: 1.0 }));
                    }
                }
            }
        }

        // Size the fetch deadline above the worst *legitimate* transfer:
        // the biggest object at the worst max-min share (every node on
        // the weakest, most-degraded link at once). Max-min fairness
        // guarantees each flow at least `min_l capacity_l / flows_l`, so
        // a healthy fetch can never hit this deadline.
        let cfg = SimConfig::paper_testbed(seed).bundled(bundles);
        let mut min_base = crate::config::FAST_ETHERNET_SERVER_BPS;
        if let Some((_, uplink)) = cabinet {
            min_base = min_base.min(uplink);
        }
        let biggest_bytes = cfg
            .packages
            .iter()
            .map(|p| p.transfer_bytes)
            .max()
            .unwrap_or(0)
            .max(cfg.kickstart_bytes) as f64;
        let worst_rate = min_base * min_factor / n_nodes as f64;
        let fetch_timeout_s = (biggest_bytes / worst_rate) * 1.5 + 90.0;
        let retry = RetryPolicy {
            fetch_timeout_s,
            backoff_base_s: rng.gen_range(2.0..=8.0),
            backoff_cap_s: rng.gen_range(30.0..=90.0),
            backoff_jitter: 0.2,
            // The budget must outlast the worst cumulative outage: each
            // burnt attempt spans at least `fetch_timeout_s ≥ 90 s`, and
            // total scheduled downtime is capped at 900 s.
            attempts_per_server: 16,
        };

        ChaosPlan { seed, n_nodes, n_servers, bundles, cabinet, retry, faults }
    }

    /// The simulation configuration this plan runs under.
    pub fn config(&self) -> SimConfig {
        let mut cfg = SimConfig::paper_testbed(self.seed).bundled(self.bundles);
        cfg.n_servers = self.n_servers;
        if let Some((k, uplink)) = self.cabinet {
            cfg = cfg.with_cabinets(k, uplink);
        }
        cfg.retry = Some(self.retry);
        cfg
    }

    /// Build the cluster and inject the fault schedule.
    pub fn build(&self, mode: EngineMode) -> ClusterSim {
        let mut sim = ClusterSim::new_with_mode(self.config(), self.n_nodes, mode);
        for (at, fault) in &self.faults {
            sim.inject_fault_at(*at, fault.clone());
        }
        sim
    }

    /// Whether `node` is recoverable under this schedule: every hang it
    /// suffers is followed by a power cycle.
    pub fn recoverable(&self, node: usize) -> bool {
        self.faults.iter().all(|(t, f)| {
            *f != Fault::NodeHang(node)
                || self.faults.iter().any(|(t2, f2)| *f2 == Fault::PowerCycle(node) && t2 > t)
        })
    }

    /// Latest scheduled fault time (0 for a fault-free plan).
    pub fn last_fault_seconds(&self) -> f64 {
        self.faults.iter().map(|(t, _)| *t).fold(0.0, f64::max)
    }

    /// Analytic worst-case completion time for any recoverable node.
    ///
    /// Within one life, a node is always either in a jittered fixed
    /// phase, in a CPU-bound install, in a fetch (bounded by the
    /// watchdog), or in a backoff (bounded by the jittered cap); the
    /// per-target attempt budget bounds how often the fetch/backoff pair
    /// can repeat. The last life starts no later than the last scheduled
    /// fault.
    pub fn worst_case_seconds(&self, cfg: &SimConfig) -> f64 {
        let jittered = |(mean, jitter): (f64, f64)| mean * (1.0 + jitter);
        let mut fixed = jittered(cfg.post_s)
            + jittered(cfg.dhcp_s)
            + jittered(cfg.format_s)
            + jittered(cfg.postconfig_s)
            + jittered(cfg.reboot_s);
        if cfg.with_myrinet {
            fixed += jittered(cfg.myrinet_s);
        }
        let targets = (1 + cfg.packages.len()) as f64;
        let life = fixed
            + cfg.node_install_seconds()
            + targets * self.retry.worst_target_seconds(cfg.n_servers);
        (self.last_fault_seconds() + life) * 1.05 + 60.0
    }
}

/// One invariant violation, tagged with the seed that reproduces it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Seed of the offending plan.
    pub seed: u64,
    /// Name of the violated invariant.
    pub invariant: &'static str,
    /// Human-readable description of what went wrong.
    pub detail: String,
}

/// A pluggable global property checked against every chaos run.
pub trait Invariant {
    /// Stable name, used in violation reports.
    fn name(&self) -> &'static str;

    /// Called after every processed simulation event. Default: nothing.
    fn on_event(&mut self, sim: &ClusterSim) -> Result<(), String> {
        let _ = sim;
        Ok(())
    }

    /// Called once after the run settles.
    fn at_end(
        &mut self,
        plan: &ChaosPlan,
        sim: &ClusterSim,
        result: &ReinstallResult,
    ) -> Result<(), String> {
        let _ = (plan, sim, result);
        Ok(())
    }
}

/// A node's install phase never regresses within one power-on life.
#[derive(Debug, Default)]
pub(crate) struct MonotonePhases {
    /// Last observed `(lives, phase rank)` per node.
    last: Vec<(u32, u32)>,
}

impl Invariant for MonotonePhases {
    fn name(&self) -> &'static str {
        "monotone-phases"
    }

    fn on_event(&mut self, sim: &ClusterSim) -> Result<(), String> {
        if self.last.len() != sim.nodes().len() {
            self.last = sim.nodes().iter().map(|n| (n.lives, n.state.phase_rank())).collect();
            return Ok(());
        }
        for (i, node) in sim.nodes().iter().enumerate() {
            let (lives, rank) = (node.lives, node.state.phase_rank());
            let (last_lives, last_rank) = self.last[i];
            self.last[i] = (lives, rank);
            if lives == last_lives && rank < last_rank {
                return Err(format!(
                    "node {} regressed from rank {last_rank} to {rank} ({:?}) within life {lives}",
                    node.name, node.state
                ));
            }
        }
        Ok(())
    }
}

/// Bytes moved match the physics: every completed install transferred a
/// full image, no link beat its capacity integral, and a fault-free run
/// delivered exactly the demanded bytes.
#[derive(Debug, Default)]
pub(crate) struct ByteConservation;

impl ByteConservation {
    /// Upper bound on what `link` can have delivered by `end` seconds:
    /// its base capacity integrated over the plan's down/degrade
    /// timeline.
    fn capacity_integral(plan: &ChaosPlan, sim: &ClusterSim, link: usize, end: f64) -> f64 {
        let base = sim.link_base_capacities()[link];
        let n_servers = sim.config().n_servers;
        let mut events: Vec<&(f64, Fault)> = plan.faults.iter().collect();
        events.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (mut down, mut factor) = (false, 1.0f64);
        let (mut acc, mut last_t) = (0.0f64, 0.0f64);
        let mut cap = base;
        for (t, fault) in events {
            let t = t.min(end);
            acc += cap * (t - last_t).max(0.0);
            last_t = t;
            match fault {
                Fault::ServerDown(id) if *id == link && *id < n_servers => down = true,
                Fault::ServerUp(id) if *id == link && *id < n_servers => down = false,
                Fault::LinkDegrade { link: l, factor: f } if *l == link => {
                    factor = f.clamp(0.0, 1.0)
                }
                _ => {}
            }
            cap = if down { 0.0 } else { base * factor };
        }
        acc + cap * (end - last_t).max(0.0)
    }
}

impl Invariant for ByteConservation {
    fn name(&self) -> &'static str {
        "byte-conservation"
    }

    fn at_end(
        &mut self,
        plan: &ChaosPlan,
        sim: &ClusterSim,
        result: &ReinstallResult,
    ) -> Result<(), String> {
        let cfg = sim.config();
        let image = cfg.node_transfer_bytes() as f64;
        let delivered: f64 = sim.link_bytes()[..cfg.n_servers].iter().sum();
        let completed_installs: f64 = sim.nodes().iter().map(|n| n.installs_completed as f64).sum();
        let needed = completed_installs * image;
        if delivered + 1024.0 < needed {
            return Err(format!(
                "servers delivered {delivered:.0} B but {completed_installs} completed \
                 installs needed {needed:.0} B"
            ));
        }
        // Without faults there are no retries, no power cycles, no
        // wasted transfers: delivery is exact.
        if plan.faults.is_empty() && (delivered - needed).abs() > 1024.0 * completed_installs {
            return Err(format!(
                "fault-free run delivered {delivered:.0} B, expected exactly {needed:.0} B"
            ));
        }
        for (link, &bytes) in sim.link_bytes().iter().enumerate() {
            let ceiling =
                ByteConservation::capacity_integral(plan, sim, link, result.total_seconds);
            if bytes > ceiling * (1.0 + 1e-6) + 1024.0 {
                return Err(format!(
                    "link {link} delivered {bytes:.0} B, above its capacity integral \
                     {ceiling:.0} B"
                ));
            }
        }
        Ok(())
    }
}

/// Every recoverable node completes, inside the analytic worst-case
/// bound, and the retry protocol never gives up on one.
#[derive(Debug, Default)]
pub(crate) struct EventualCompletion;

impl Invariant for EventualCompletion {
    fn name(&self) -> &'static str {
        "eventual-completion"
    }

    fn at_end(
        &mut self,
        plan: &ChaosPlan,
        sim: &ClusterSim,
        result: &ReinstallResult,
    ) -> Result<(), String> {
        for (i, node) in sim.nodes().iter().enumerate() {
            if !plan.recoverable(i) {
                continue;
            }
            if node.state == NodeState::Failed {
                return Err(format!(
                    "recoverable node {} exhausted its retry budget ({} attempts)",
                    node.name, node.target_attempts
                ));
            }
            if result.per_node_seconds[i].is_none() {
                return Err(format!(
                    "recoverable node {} never completed (state {:?})",
                    node.name, node.state
                ));
            }
        }
        let bound = plan.worst_case_seconds(sim.config());
        if result.total_seconds > bound {
            return Err(format!(
                "run took {:.0} s, above the worst-case bound {bound:.0} s",
                result.total_seconds
            ));
        }
        Ok(())
    }
}

/// The standard checker set every chaos run is held to.
pub fn standard_invariants() -> Vec<Box<dyn Invariant>> {
    vec![
        Box::new(MonotonePhases::default()),
        Box::new(ByteConservation),
        Box::new(EventualCompletion),
    ]
}

/// Outcome of one chaos scenario.
#[derive(Debug)]
pub struct ChaosRecord {
    /// The plan's seed.
    pub seed: u64,
    /// Invariant violations (empty on a healthy run).
    pub violations: Vec<Violation>,
    /// Full per-node accounting.
    pub result: ReinstallResult,
    /// Nodes that reached `Up` at least once.
    pub completed: usize,
    /// Nodes the schedule left unrecoverable (hung without a later power
    /// cycle).
    pub unrecoverable: usize,
}

/// Run one plan under `mode`, feeding every event and the final state
/// through `invariants`. At most one violation per invariant is recorded.
pub fn run_plan(
    plan: &ChaosPlan,
    mode: EngineMode,
    invariants: &mut [Box<dyn Invariant>],
) -> ChaosRecord {
    let mut sim = plan.build(mode);
    let mut violations: Vec<Violation> = Vec::new();
    let record = |name: &'static str, detail: String, violations: &mut Vec<Violation>| {
        if violations.iter().all(|v| v.invariant != name) {
            violations.push(Violation { seed: plan.seed, invariant: name, detail });
        }
    };
    sim.begin_reinstall();
    loop {
        match sim.step_once() {
            Ok(true) => {
                for inv in invariants.iter_mut() {
                    if let Err(detail) = inv.on_event(&sim) {
                        record(inv.name(), detail, &mut violations);
                    }
                }
            }
            Ok(false) => break,
            Err(e) => {
                // With the retry protocol armed a stall is impossible:
                // every zero-rate fetch carries a watchdog timer.
                record("no-stall", e.to_string(), &mut violations);
                break;
            }
        }
    }
    let result = sim.collect_result();
    for inv in invariants.iter_mut() {
        if let Err(detail) = inv.at_end(plan, &sim, &result) {
            record(inv.name(), detail, &mut violations);
        }
    }
    let unrecoverable = (0..plan.n_nodes).filter(|&i| !plan.recoverable(i)).count();
    ChaosRecord {
        seed: plan.seed,
        violations,
        completed: result.completed(),
        unrecoverable,
        result,
    }
}

/// Aggregate outcome of a seed sweep.
#[derive(Debug, Default)]
pub struct ChaosReport {
    /// Scenarios executed.
    pub seeds_run: usize,
    /// Every violation found, across all seeds and the differential
    /// subset.
    pub violations: Vec<Violation>,
    /// Faults scheduled across all plans.
    pub total_faults: usize,
    /// Nodes that completed across all runs.
    pub completed_nodes: usize,
    /// Nodes left unrecoverable by their schedules.
    pub unrecoverable_nodes: usize,
    /// Fetch attempts across all runs.
    pub total_attempts: u64,
    /// Install-server failovers across all runs.
    pub total_failovers: u64,
    /// Plans additionally replayed on the reference engine.
    pub diff_checked: usize,
}

/// Check that a fast-engine record and a reference-engine record of the
/// same plan agree observationally.
fn engines_agree(fast: &ChaosRecord, reference: &ChaosRecord) -> Result<(), String> {
    if fast.completed != reference.completed {
        return Err(format!(
            "completed: fast {} vs reference {}",
            fast.completed, reference.completed
        ));
    }
    if (fast.result.total_seconds - reference.result.total_seconds).abs() > 1e-3 {
        return Err(format!(
            "total seconds: fast {} vs reference {}",
            fast.result.total_seconds, reference.result.total_seconds
        ));
    }
    if fast.result.per_node_attempts != reference.result.per_node_attempts {
        return Err("per-node attempt counts differ".to_string());
    }
    if fast.result.per_node_failovers != reference.result.per_node_failovers {
        return Err("per-node failover counts differ".to_string());
    }
    for (f, r) in fast.result.server_bytes.iter().zip(&reference.result.server_bytes) {
        if (f - r).abs() > 16.0_f64.max(r.abs() * 1e-6) {
            return Err(format!("server bytes: fast {f} vs reference {r}"));
        }
    }
    Ok(())
}

/// Run `count` seeded scenarios starting at `first_seed` under the
/// standard invariant set, replaying every seventh small plan on the
/// reference engine for the agreement check.
pub fn run_chaos(first_seed: u64, count: usize) -> ChaosReport {
    let mut report = ChaosReport::default();
    for seed in first_seed..first_seed + count as u64 {
        let plan = ChaosPlan::generate(seed);
        let mut invariants = standard_invariants();
        let record = run_plan(&plan, EngineMode::Fast, &mut invariants);
        report.seeds_run += 1;
        report.total_faults += plan.faults.len();
        report.completed_nodes += record.completed;
        report.unrecoverable_nodes += record.unrecoverable;
        report.total_attempts += record.result.total_attempts();
        report.total_failovers += record.result.total_failovers();
        report.violations.extend(record.violations.iter().cloned());

        if plan.n_nodes <= 10 && seed % 7 == 0 {
            report.diff_checked += 1;
            let mut ref_invariants = standard_invariants();
            let reference = run_plan(&plan, EngineMode::Reference, &mut ref_invariants);
            report.violations.extend(reference.violations.iter().cloned());
            if let Err(detail) = engines_agree(&record, &reference) {
                report.violations.push(Violation { seed, invariant: "engine-agreement", detail });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deliberately broken invariant: it claims fault schedules are
    /// free — no retries, no failovers, no extra power-on lives — which
    /// any flap, outage, or power cycle falsifies. Exists to prove the
    /// harness actually catches violations.
    pub(crate) struct FaultsAreFree;

    impl Invariant for FaultsAreFree {
        fn name(&self) -> &'static str {
            "broken-faults-are-free"
        }

        fn at_end(
            &mut self,
            _plan: &ChaosPlan,
            sim: &ClusterSim,
            result: &ReinstallResult,
        ) -> Result<(), String> {
            let cfg = sim.config();
            let minimal = (sim.nodes().len() * (1 + cfg.packages.len())) as u64;
            if result.total_attempts() != minimal {
                return Err(format!(
                    "claimed faults are free, but {} attempts > minimal {minimal}",
                    result.total_attempts()
                ));
            }
            Ok(())
        }
    }

    #[test]
    fn plans_are_deterministic() {
        for seed in [0u64, 1, 17, 9999] {
            assert_eq!(ChaosPlan::generate(seed), ChaosPlan::generate(seed));
        }
        assert_ne!(ChaosPlan::generate(1), ChaosPlan::generate(2));
    }

    #[test]
    fn standard_invariants_hold_on_a_seed_sweep() {
        let report = run_chaos(0, 25);
        assert_eq!(report.seeds_run, 25);
        assert!(report.violations.is_empty(), "violations: {:#?}", report.violations);
        assert!(report.completed_nodes > 0);
        assert!(report.diff_checked > 0, "differential subset must be sampled");
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let run = |seed| {
            let plan = ChaosPlan::generate(seed);
            let record = run_plan(&plan, EngineMode::Fast, &mut standard_invariants());
            (record.result.total_seconds, record.result.per_node_attempts.clone())
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn deliberately_broken_invariant_is_caught() {
        // Some seed in a modest range schedules a fault that forces a
        // retry or an extra life; the broken invariant must trip on it.
        let caught = (0..60).any(|seed| {
            let plan = ChaosPlan::generate(seed);
            let mut invariants: Vec<Box<dyn Invariant>> = vec![Box::new(FaultsAreFree)];
            let record = run_plan(&plan, EngineMode::Fast, &mut invariants);
            record.violations.iter().any(|v| v.invariant == "broken-faults-are-free")
        });
        assert!(caught, "the harness failed to catch a deliberately broken invariant");
    }

    #[test]
    fn recoverable_analysis_matches_schedule() {
        // Hand-built plan: node 0 hangs and is cycled (recoverable),
        // node 1 hangs and never recovers.
        let mut plan = ChaosPlan::generate(3);
        plan.n_nodes = 4;
        plan.faults = vec![
            (50.0, Fault::NodeHang(0)),
            (120.0, Fault::PowerCycle(0)),
            (80.0, Fault::NodeHang(1)),
        ];
        assert!(plan.recoverable(0));
        assert!(!plan.recoverable(1));
        assert!(plan.recoverable(2));
        let record = run_plan(&plan, EngineMode::Fast, &mut standard_invariants());
        assert!(record.violations.is_empty(), "{:#?}", record.violations);
        assert_eq!(record.completed, 3);
        assert_eq!(record.unrecoverable, 1);
    }
}
