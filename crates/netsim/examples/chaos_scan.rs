//! Corpus scanner: prints the exact per-seed outcome of every chaos
//! scenario plus the three hand-crafted retry scenarios, in the format
//! the pinned numbers in `tests/chaos_corpus.rs` were selected from.
//! Re-run it after an intentional behaviour change to regenerate them.

use rocks_netsim::{run_plan, standard_invariants, ChaosPlan, ClusterSim, Fault, RetryPolicy};
use rocks_netsim::{EngineMode, SimConfig};

fn scenario_policy() -> RetryPolicy {
    RetryPolicy {
        fetch_timeout_s: 60.0,
        backoff_base_s: 5.0,
        backoff_cap_s: 40.0,
        backoff_jitter: 0.2,
        attempts_per_server: 8,
    }
}

fn scenario_cfg(n_servers: usize) -> SimConfig {
    let mut cfg = SimConfig::paper_testbed(7).bundled(6);
    cfg.n_servers = n_servers;
    cfg.with_retries(scenario_policy())
}

fn print_result(label: &str, sim: &mut ClusterSim) {
    let r = sim.try_run_reinstall().expect("scenario must converge");
    println!(
        "{label}: completed={} attempts={:?} failovers={:?} backoff={:.2} secs={:.1}",
        r.completed(),
        r.per_node_attempts,
        r.per_node_failovers,
        r.total_backoff_seconds(),
        r.total_seconds
    );
}

fn scenarios() {
    // A: flapping single server.
    let mut sim = ClusterSim::new(scenario_cfg(1), 4);
    for (down, up) in [(100.0, 160.0), (200.0, 260.0), (300.0, 360.0)] {
        sim.inject_fault_at(down, Fault::ServerDown(0));
        sim.inject_fault_at(up, Fault::ServerUp(0));
    }
    print_result("A", &mut sim);

    // B: hang during outage/backoff, then power-cycled after recovery.
    let mut sim = ClusterSim::new(scenario_cfg(1), 2);
    sim.inject_fault_at(50.0, Fault::ServerDown(0));
    sim.inject_fault_at(80.0, Fault::NodeHang(0));
    sim.inject_fault_at(200.0, Fault::ServerUp(0));
    sim.inject_fault_at(260.0, Fault::PowerCycle(0));
    print_result("B", &mut sim);

    // C: power cycle racing a healthy install.
    let mut sim = ClusterSim::new(scenario_cfg(2), 3);
    sim.inject_fault_at(150.0, Fault::PowerCycle(1));
    print_result("C", &mut sim);
}

fn main() {
    scenarios();
    for seed in 0..200u64 {
        let plan = ChaosPlan::generate(seed);
        let record = run_plan(&plan, EngineMode::Fast, &mut standard_invariants());
        let (mut flaps, mut perms, mut hangs, mut cycles, mut degrades) = (0, 0i32, 0, 0, 0);
        for (_, f) in &plan.faults {
            match f {
                Fault::ServerDown(_) => perms += 1,
                Fault::ServerUp(_) => {
                    flaps += 1;
                    perms -= 1;
                }
                Fault::NodeHang(_) => hangs += 1,
                Fault::PowerCycle(_) => cycles += 1,
                Fault::LinkDegrade { .. } => degrades += 1,
            }
        }
        println!(
            "seed={seed} nodes={} servers={} cab={} faults={} (flap={flaps} perm={perms} \
             hang={hangs} cycle={cycles} deg={degrades}) completed={} unrec={} attempts={} \
             failovers={} backoff={:.1} secs={:.0} viol={}",
            plan.n_nodes,
            plan.n_servers,
            plan.cabinet.is_some(),
            plan.faults.len(),
            record.completed,
            record.unrecoverable,
            record.result.total_attempts(),
            record.result.total_failovers(),
            record.result.total_backoff_seconds(),
            record.result.total_seconds,
            record.violations.len(),
        );
    }
}
