//! The one cabinet driver, seen from outside: faults naming nodes that
//! do not exist are ignored on both the flat and the tiered simulator,
//! and the flat simulator's event tally — what the benchmark divides
//! host time by — is pinned to the numbers it had before `ClusterSim`
//! and `FederatedSim` shared a `Shard`.

use rocks_netsim::cluster::Fault;
use rocks_netsim::{ClusterSim, FederatedSim, NodeState, SimConfig, TierConfig};

fn small_cfg(seed: u64) -> SimConfig {
    SimConfig::paper_testbed(seed).bundled(12)
}

#[test]
fn faults_naming_absent_nodes_are_ignored_by_the_flat_driver() {
    let n = 6;
    let clean = ClusterSim::new(small_cfg(1), n).run_reinstall();
    let mut sim = ClusterSim::new(small_cfg(1), n);
    sim.inject_fault_at(100.0, Fault::NodeHang(n));
    sim.inject_fault_at(200.0, Fault::PowerCycle(n + 7));
    let result = sim.try_run_reinstall().expect("absent nodes cannot wedge the run");
    assert!(sim.nodes().iter().all(|node| node.state == NodeState::Up));
    assert_eq!(result.per_node_seconds, clean.per_node_seconds, "a no-op fault moved a node");
}

#[test]
fn faults_naming_absent_nodes_are_ignored_by_the_tiered_driver() {
    // Ten nodes in cabinets of four: node 10 falls in the half-empty last
    // cabinet, node 17 in a cabinet that does not exist, and a global id
    // below a shard's base must not underflow either.
    let n = 10;
    let tiers = TierConfig { cabinet_size: 4, cabinets_per_campus: 2, ..TierConfig::standard() };
    let clean = FederatedSim::new_tiered(small_cfg(1), tiers, n).run_reinstall();
    let mut sim = FederatedSim::new_tiered(small_cfg(1), tiers, n);
    sim.inject_fault_at(100.0, Fault::NodeHang(n));
    sim.inject_fault_at(200.0, Fault::PowerCycle(n + 7));
    let result = sim.try_run_reinstall().expect("absent nodes cannot wedge the run");
    assert!(sim.nodes().all(|node| node.state == NodeState::Up));
    assert_eq!(result.per_node_seconds, clean.per_node_seconds, "a no-op fault moved a node");
}

#[test]
fn flat_event_tally_matches_the_pre_merge_driver() {
    let mut cfg = small_cfg(5);
    cfg.n_servers = 2;
    let tracer = rocks_trace::Tracer::ring_sim(1 << 12);
    let mut sim = ClusterSim::new(cfg, 16);
    sim.set_tracer(tracer.clone());
    sim.inject_fault_at(100.0, Fault::ServerDown(1));
    sim.inject_fault_at(260.0, Fault::ServerUp(1));
    sim.inject_fault_at(150.0, Fault::PowerCycle(3));
    let result = sim.run_reinstall();
    assert_eq!(result.completed(), 16);
    // Recorded at the last commit with two drivers. A fault's timer
    // counts once as a timer and once as a fault, so events() is the
    // three scheduler counters added up.
    assert_eq!(result.total_seconds.to_bits(), 0x408c_d647_e414_e7ef);
    assert_eq!(sim.events(), 506);
    let snap = tracer.registry().expect("ring_sim carries a registry").snapshot();
    let netsim: Vec<(&str, u64)> = snap.counters.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    assert_eq!(
        netsim,
        [
            ("netsim.failovers", 0),
            ("netsim.faults", 3),
            ("netsim.fetch.attempts", 210),
            ("netsim.flow.completions", 209),
            ("netsim.installs.completed", 16),
            ("netsim.kickstart.requests", 17),
            ("netsim.timers", 294),
        ]
    );
}

#[test]
fn a_tracer_attached_late_is_published_the_full_totals() {
    // Counter handles and the published-so-far tally belong to the
    // tracer they were resolved against: a registry lists the netsim
    // counters (at zero) from `set_tracer` on, and a registry attached
    // after a collection is owed everything, not the delta.
    let totals = |tracer: &rocks_trace::Tracer, name: &str| {
        tracer.registry().expect("ring_sim carries a registry").snapshot().counter(name)
    };
    let tiers = TierConfig { cabinet_size: 4, cabinets_per_campus: 2, ..TierConfig::standard() };
    let (first, late) = (rocks_trace::Tracer::ring_sim(64), rocks_trace::Tracer::ring_sim(64));

    let mut flat = ClusterSim::new(small_cfg(1), 4);
    flat.set_tracer(first.clone());
    let listed = first.registry().unwrap().snapshot();
    assert!(listed.counters.iter().any(|(k, v)| k == "netsim.flow.completions" && *v == 0));
    flat.run_reinstall();
    flat.set_tracer(late.clone());
    flat.collect_result();
    assert!(totals(&late, "netsim.flow.completions") > 0);
    assert_eq!(totals(&late, "netsim.flow.completions"), totals(&first, "netsim.flow.completions"));

    let mut fed = FederatedSim::new_tiered(small_cfg(1), tiers, 8);
    fed.set_tracer(first.clone());
    fed.run_reinstall();
    fed.set_tracer(late.clone());
    fed.collect_result();
    assert!(totals(&late, "netsim.tier.proxy.misses") > 0);
    assert_eq!(
        totals(&late, "netsim.tier.proxy.misses"),
        totals(&first, "netsim.tier.proxy.misses")
    );
}
