//! Property tests for the chaos harness and the retrying install
//! protocol: for *any* seed — and for adversarial hand-shaped fault
//! schedules — the standard invariants must hold, every recoverable node
//! must complete within the analytically computed worst-case bound, and
//! runs must be bit-for-bit deterministic.

use proptest::prelude::*;
use rocks_netsim::{run_plan, standard_invariants, ChaosPlan, ClusterSim, Fault, RetryPolicy};
use rocks_netsim::{EngineMode, SimConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Any seed: the generated plan runs to quiescence with zero
    /// invariant violations, and every recoverable node completes. This
    /// is the harness's core promise — a violating seed is a real,
    /// instantly reproducible bug.
    #[test]
    fn any_seed_satisfies_the_standard_invariants(seed in 0u64..1_000_000) {
        let plan = ChaosPlan::generate(seed);
        let record = run_plan(&plan, EngineMode::Fast, &mut standard_invariants());
        prop_assert!(
            record.violations.is_empty(),
            "seed {} violated: {:#?}",
            seed,
            record.violations
        );
        prop_assert_eq!(record.completed, plan.n_nodes - record.unrecoverable);
        // The bound the EventualCompletion invariant enforces is real:
        // recompute it here and re-check against the result.
        let bound = plan.worst_case_seconds(&plan.config());
        prop_assert!(
            record.result.total_seconds <= bound,
            "seed {}: {} s above bound {} s",
            seed,
            record.result.total_seconds,
            bound
        );
    }

    /// Chaos runs are deterministic: the same seed replays to identical
    /// attempt counts, failover counts, and completion times.
    #[test]
    fn chaos_runs_are_deterministic(seed in 0u64..100_000) {
        let run = || {
            let plan = ChaosPlan::generate(seed);
            let record = run_plan(&plan, EngineMode::Fast, &mut standard_invariants());
            (
                record.result.total_seconds,
                record.result.per_node_attempts.clone(),
                record.result.per_node_failovers.clone(),
                record.result.per_node_seconds.clone(),
            )
        };
        prop_assert_eq!(run(), run());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Adversarial flap schedules outside the generator: a two-server
    /// cluster under arbitrary bounded outage windows still completes
    /// every node — the watchdog/backoff/failover loop rides out any
    /// recovering outage — and attempt accounting stays consistent.
    #[test]
    fn arbitrary_flap_schedules_always_converge(
        seed in 0u64..10_000,
        n in 2usize..10,
        flaps in proptest::collection::vec((10.0f64..400.0, 20.0f64..120.0, 0usize..2), 0..4),
    ) {
        let mut cfg = SimConfig::paper_testbed(seed).bundled(5);
        cfg.n_servers = 2;
        let cfg = cfg.with_retries(RetryPolicy::standard());
        let minimal = (1 + cfg.packages.len()) as u32;
        let mut sim = ClusterSim::new_with_mode(cfg, n, EngineMode::Fast);
        for &(at, outage, server) in &flaps {
            sim.inject_fault_at(at, Fault::ServerDown(server));
            sim.inject_fault_at(at + outage, Fault::ServerUp(server));
        }
        let result = sim.try_run_reinstall().expect("flaps recover, so every node completes");
        prop_assert_eq!(result.completed(), n);
        for (node, &attempts) in result.per_node_attempts.iter().enumerate() {
            prop_assert!(
                attempts >= minimal,
                "node {} made {} attempts, below the fault-free minimum {}",
                node, attempts, minimal
            );
            // A failover only ever happens on a timed-out attempt.
            prop_assert!(result.per_node_failovers[node] <= attempts);
        }
        if flaps.is_empty() {
            prop_assert_eq!(result.total_attempts(), (n as u64) * u64::from(minimal));
            prop_assert_eq!(result.total_failovers(), 0);
            prop_assert!(result.total_backoff_seconds() == 0.0);
        }
    }
}
