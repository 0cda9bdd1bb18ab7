//! Failure scenarios from §4: dead install server mid-wave, hung nodes
//! recovered by the PDU, and the NFS common-mode failure — plus the
//! retrying install protocol riding out outages that never end.

use rocks::netsim::Fault;
use rocks::netsim::{ClusterSim, NodeState, ReinstallError, RetryPolicy, SimConfig};
use rocks::services::{MountError, NfsServer};

fn cfg() -> SimConfig {
    SimConfig::paper_testbed(17).bundled(12)
}

#[test]
fn install_server_outage_delays_but_never_loses_nodes() {
    let clean = ClusterSim::new(cfg(), 8).run_reinstall();
    let mut faulty = ClusterSim::new(cfg(), 8);
    faulty.inject_fault_at(200.0, Fault::ServerDown(0));
    faulty.inject_fault_at(500.0, Fault::ServerUp(0));
    let result = faulty.run_reinstall();
    assert_eq!(result.completed(), 8, "every node must finish after the outage");
    assert!(result.total_seconds > clean.total_seconds + 200.0);
    // Byte conservation: the outage loses no data.
    let expected = cfg().node_transfer_bytes() as f64 * 8.0;
    assert!((result.server_bytes.iter().sum::<f64>() - expected).abs() < 1024.0);
}

#[test]
fn crash_cart_scenario_hang_then_power_cycle() {
    // §4: a node that stops responding over Ethernet gets a hard power
    // cycle from the network PDU, which forces a reinstall.
    let mut sim = ClusterSim::new(cfg(), 4);
    sim.inject_fault_at(150.0, Fault::NodeHang(2));
    sim.inject_fault_at(400.0, Fault::PowerCycle(2));
    let result = sim.run_reinstall();
    assert_eq!(result.completed(), 4);
    assert_eq!(sim.node(2).state, NodeState::Up);
    // The cycled node's log shows the whole second life.
    let powered_on = sim.node(2).log.iter().filter(|l| l.text.contains("power on")).count();
    assert_eq!(powered_on, 2);
}

#[test]
fn unrecovered_hang_is_visible_not_fatal() {
    let mut sim = ClusterSim::new(cfg(), 4);
    sim.inject_fault_at(150.0, Fault::NodeHang(0));
    let result = sim.run_reinstall();
    assert_eq!(result.completed(), 3);
    assert!(result.per_node_seconds[0].is_none());
    assert_eq!(sim.node(0).state, NodeState::Hung);
}

#[test]
fn permanent_outage_with_failover_completes_in_bounded_extra_time() {
    // The headline guarantee of the retrying install protocol: server 0
    // dies mid-wave and NEVER comes back, but a second replica exists, so
    // every node still completes — the watchdog times the dead fetches
    // out, backoff spreads the retries, and the failover ring lands each
    // stranded node on the survivor. Attempt accounting proves the path.
    let mut base_cfg = cfg();
    base_cfg.n_servers = 2;
    let base_cfg = base_cfg.with_retries(RetryPolicy::standard());
    let clean =
        ClusterSim::new(base_cfg.clone(), 8).try_run_reinstall().expect("clean run completes");

    let mut sim = ClusterSim::new(base_cfg.clone(), 8);
    sim.inject_fault_at(120.0, Fault::ServerDown(0));
    let result =
        sim.try_run_reinstall().expect("failover must carry every node past the permanent outage");
    assert_eq!(result.completed(), 8, "no node may be lost to a dead replica");

    // The stranded half (odd ranks home on server 1 stay clean; even
    // ranks home on server 0 must have failed over at least once).
    assert!(result.total_failovers() >= 1, "completion must come via failover");
    assert!(result.total_backoff_seconds() > 0.0, "retries must have backed off");
    let extra_per_target = RetryPolicy::standard().worst_target_seconds(2);
    let bundles = 1.0 + base_cfg.packages.len() as f64;
    let bound = clean.total_seconds + 120.0 + bundles * extra_per_target;
    assert!(
        result.total_seconds <= bound,
        "extra time unbounded: {} vs bound {}",
        result.total_seconds,
        bound
    );
    // Nobody burnt more than one timed-out attempt per fetch target plus
    // the baseline — the watchdog fires once per dead fetch, not forever.
    let minimal = bundles as u32;
    for (i, &attempts) in result.per_node_attempts.iter().enumerate() {
        assert!(
            attempts >= minimal && attempts <= minimal * 3,
            "node {i} attempts {attempts} outside [{minimal}, {}]",
            minimal * 3
        );
    }
}

#[test]
fn single_server_permanent_outage_surfaces_typed_exhaustion() {
    // With no replica to fail over to, the budget runs dry and the
    // protocol reports *which* node gave up and how hard it tried —
    // instead of wedging the simulation with a stall.
    let policy = RetryPolicy::standard();
    let mut sim = ClusterSim::new(cfg().with_retries(policy), 4);
    sim.inject_fault_at(120.0, Fault::ServerDown(0));
    match sim.try_run_reinstall() {
        Err(ReinstallError::AllServersDown { node, attempts }) => {
            assert!(node.starts_with("compute-"), "typed error names the node: {node}");
            assert_eq!(attempts, policy.max_attempts(1));
        }
        other => panic!("expected AllServersDown, got {other:?}"),
    }
}

#[test]
fn nfs_common_mode_failure_and_recovery() {
    // All nodes share one NFS server; when it dies they all appear dead
    // at once. Fixing the service restores everyone without remounts.
    let mut nfs = NfsServer::new();
    nfs.export("/export/home", "10.");
    let clients: Vec<String> = (0..8).map(|i| format!("10.255.255.{}", 254 - i)).collect();
    for c in &clients {
        nfs.mount(c, "/export/home").unwrap();
    }
    nfs.crash();
    assert!(clients.iter().all(|c| nfs.access(c, "/export/home") == Err(MountError::ServerDown)));
    nfs.restart();
    assert!(clients.iter().all(|c| nfs.access(c, "/export/home").is_ok()));
}

#[test]
fn replicated_servers_mask_a_single_failure() {
    // With two replicas, killing one mid-wave slows the cluster but the
    // nodes on the healthy replica are unaffected.
    let mut base_cfg = cfg();
    base_cfg.n_servers = 2;
    let mut sim = ClusterSim::new(base_cfg.clone(), 8);
    sim.inject_fault_at(200.0, Fault::ServerDown(1));
    sim.inject_fault_at(600.0, Fault::ServerUp(1));
    let result = sim.run_reinstall();
    assert_eq!(result.completed(), 8);
    // Even-indexed nodes (server 0) finish at the clean pace.
    let clean = ClusterSim::new(base_cfg, 8).run_reinstall();
    for i in (0..8).step_by(2) {
        let fault_time = result.per_node_seconds[i].unwrap();
        let clean_time = clean.per_node_seconds[i].unwrap();
        assert!(
            fault_time <= clean_time * 1.35 + 60.0,
            "node {i} on healthy server slowed too much: {fault_time} vs {clean_time}"
        );
    }
}
