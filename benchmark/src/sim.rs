//! `sim-reinstall`: host-time cost of the simulators behind Table I.
//!
//! Touches no SQL and no kickstart code, so it is the no-change control
//! for the other four workloads, and the only place a change to the
//! three event loops (the federated netsim, the flat `ClusterSim`, the
//! rollout orchestrator) can show.

use crate::estimator::{percentile_of, Better, Lane};
use crate::run::{Check, Layers, Outcome, Run};
use crate::trace::{durations, Recorder};
use crate::util::{load_threads, nproc, timed, Rng};
use rocks_netsim::{ClusterSim, FederatedSim, SimConfig, TierConfig, TierReport};
use rocks_pbs::RolloutPlan;

/// Nodes in the federated (sharded, tiered) reinstall at full size.
const FEDERATED_NODES: usize = 8_192;
/// Nodes in the flat single-engine reinstall at full size.
const FLAT_NODES: usize = 256;
/// Rollout plans generated and run per round.
const PLANS: usize = 256;

const STREAM_PLANS: u64 = 0x7369_0001;

pub struct Fixture {
    /// The Table I testbed, packages bundled and node logs off: the
    /// configuration the million-node sweeps use.
    federated: SimConfig,
    /// The same testbed with every package its own transfer.
    flat: SimConfig,
    plan_seeds: Vec<u64>,
}

/// Set-up: synthesize the distribution the simulated nodes install, and
/// order the rollout plans.
///
/// This workload is the control, so what it simulates does not vary with
/// `--seed`: the cluster is `paper_testbed(1)` and the plans are those of
/// seeds `0..PLANS`. A different testbed seed is a different package set
/// and a different plan population a different mix of cluster sizes;
/// either moves every metric here by more than the host's noise does.
/// `--seed` decides the order in which the plans run.
pub fn build(run: &Run) -> Fixture {
    let flat = SimConfig::paper_testbed(1);
    let federated = flat.clone().bundled(12).without_node_logs();
    let mut rng = Rng::new(run.seed, STREAM_PLANS);
    let mut plan_seeds: Vec<u64> = (0..run.size(PLANS, 8) as u64).collect();
    for i in (1..plan_seeds.len()).rev() {
        plan_seeds.swap(i, rng.below(i + 1));
    }
    Fixture { federated, flat, plan_seeds }
}

/// What a federated run must reproduce bit for bit, whatever the thread
/// count and however often it is repeated.
#[derive(Debug, Clone, PartialEq)]
struct Ledger {
    events: u64,
    sim_seconds_bits: u64,
    completed: usize,
    tiers: TierReport,
}

struct Federated {
    /// Building this simulator and a flat one beside it.
    build_ns: f64,
    run_ns: f64,
    ledger: Ledger,
}

fn federated(fx: &Fixture, run: &Run, threads: usize, id: u64, rec: &Recorder) -> Federated {
    let nodes = run.size(FEDERATED_NODES, 1024);
    let (mut sim, build_ns) = timed(|| {
        rec.span("netsim.shard.build", id, || {
            FederatedSim::new_tiered(fx.federated.clone(), TierConfig::standard(), nodes)
        })
    });
    let (_, flat_build_ns) = timed(|| {
        rec.span("netsim.engine.build", id, || {
            ClusterSim::new(fx.flat.clone(), run.size(FLAT_NODES, 64))
        })
    });
    sim.set_threads(threads);
    let span = if threads == 1 { "netsim.shard.run.t1" } else { "netsim.shard.run.tn" };
    let (result, run_ns) = timed(|| rec.span(span, id, || sim.run_reinstall()));
    let ledger = Ledger {
        events: sim.events(),
        sim_seconds_bits: result.total_seconds.to_bits(),
        completed: result.completed(),
        tiers: sim.tier_report().expect("a tiered run has a tier report"),
    };
    Federated { build_ns: build_ns + flat_build_ns, run_ns, ledger }
}

struct Flat {
    run_ns: f64,
    events: u64,
    completed: usize,
    nodes: usize,
}

fn flat(fx: &Fixture, run: &Run, id: u64, rec: &Recorder) -> Flat {
    let nodes = run.size(FLAT_NODES, 64);
    let mut sim = ClusterSim::new(fx.flat.clone(), nodes);
    let (result, run_ns) = timed(|| rec.span("netsim.engine.run", id, || sim.run_reinstall()));
    Flat { run_ns, events: sim.events(), completed: result.completed(), nodes }
}

/// Generate and run every plan; nanoseconds per plan.
fn rollouts(fx: &Fixture, round: usize, rec: &Recorder, check: &mut Check) -> Vec<f64> {
    rec.span("pbs.rollout.round", round as u64, || {
        fx.plan_seeds
            .iter()
            .map(|&seed| {
                let (record, ns) = timed(|| {
                    rec.span("pbs.rollout.plan", seed, || RolloutPlan::generate(seed).run())
                });
                let ok = record.violations.is_empty() && record.report.is_some();
                check.op(ok, || format!("rollout plan {seed}: {:?}", record.violations));
                ns
            })
            .collect()
    })
}

/// `sim-reinstall`.
pub fn run(fx: &Fixture, run: &Run, rec: &Recorder) -> Outcome {
    let mut out = Outcome::default();
    let threads = load_threads();

    // The reference ledger: one run on one thread.
    let reference = federated(fx, run, 1, 0, rec).ledger;
    let nodes = run.size(FEDERATED_NODES, 1024);
    out.check.op(reference.completed == nodes, || {
        format!("{} of {nodes} federated nodes came up", reference.completed)
    });

    let (mut events_per_s, mut build_ms, mut flat_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut p50, mut plans_ns) = (Vec::new(), Vec::new());
    let mut flat_events = None;
    let lanes = [Lane::new(0.5, 10, 400), Lane::new(0.3, 10, 400), Lane::new(0.2, 10, 400)];
    out.floor_rss_mb = run.interleave(&lanes, |lane, i| match lane {
        0 => {
            let f = federated(fx, run, threads, i as u64 + 1, rec);
            out.check.op(f.ledger == reference, || {
                format!("round {i} at {threads} threads: {:?} != {reference:?}", f.ledger)
            });
            events_per_s.push(f.ledger.events as f64 / (f.run_ns / 1e9));
            build_ms.push(f.build_ns / 1e6);
        }
        1 => {
            let f = flat(fx, run, i as u64, rec);
            let expected = *flat_events.get_or_insert(f.events);
            out.check.op(f.completed == f.nodes && f.events == expected, || {
                format!("flat round {i}: {} of {} up, {} events", f.completed, f.nodes, f.events)
            });
            flat_ms.push(f.run_ns / 1e6);
        }
        _ => {
            let mut plan_ns = rollouts(fx, i, rec, &mut out.check);
            p50.push(percentile_of(&mut plan_ns, 0.50) / 1e3);
            plans_ns.push(plan_ns);
        }
    });
    out.put("ops_per_s", &events_per_s, Better::Higher);
    out.put("restart_ms", &build_ms, Better::Lower);
    out.put("bulk_ms", &flat_ms, Better::Lower);
    out.put("op_p50_us", &p50, Better::Lower);
    out.put_tail_us("op_tail_us", &mut plans_ns, 0.95);
    out
}

/// Per-layer metrics of the simulators.
pub fn layers(fx: &Fixture, run: &Run, rec: &Recorder, check: &mut Check, out: &mut Layers) {
    // Shard efficiency is about all processors, whatever the end-to-end
    // runs leave free.
    let threads = nproc();
    let mark = rec.len();
    let t1 = federated(fx, run, 1, 0, rec);
    let tn = federated(fx, run, threads, 1, rec);
    check.op(t1.ledger == tn.ledger, || "federated ledgers differ across thread counts".into());
    let events = t1.ledger.events as f64;
    out.insert("netsim.shard.events_per_s_t1", events / (t1.run_ns / 1e9));
    out.insert("netsim.shard.efficiency", t1.run_ns / (threads as f64 * tn.run_ns));
    out.insert("netsim.events", events);
    out.insert("netsim.sim_minutes", f64::from_bits(t1.ledger.sim_seconds_bits) / 60.0);
    let tiers = &t1.ledger.tiers;
    out.insert(
        "netsim.tier.proxy_hit_ratio",
        tiers.proxy_hits as f64 / ((tiers.proxy_hits + tiers.proxy_misses) as f64).max(1.0),
    );

    let f = flat(fx, run, 0, rec);
    check.op(f.completed == f.nodes, || {
        format!("{} of {} flat nodes came up", f.completed, f.nodes)
    });
    out.insert("netsim.engine.events_per_s", f.events as f64 / (f.run_ns / 1e9));

    rollouts(fx, 0, rec, check);
    let spans = rec.spans_from(mark);
    let round_ns: f64 = durations(&spans, "pbs.rollout.round").iter().sum();
    out.insert("pbs.rollout.plans_per_s", fx.plan_seeds.len() as f64 / (round_ns / 1e9));
}
