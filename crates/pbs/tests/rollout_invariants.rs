//! The rollout invariant suite: across randomized job mixes and fault
//! schedules, a rolling reinstall never kills a job, reinstalls every
//! node exactly once, never exceeds the install-server capacity cap, and
//! terminates within the analytic bound. A deterministic 500-seed sweep
//! anchors CI; proptests push deeper into the seed space.

use proptest::prelude::*;
use rocks_pbs::{
    run_rollout, run_rollout_sweep, schedule, standard_rollout_invariants, FixedInstall,
    JobArrival, JobState, NodeState, PbsServer, RolloutConfig, RolloutFault, RolloutPlan,
};
use rocks_trace::Tracer;

/// The quick CI sweep: 500 consecutive seeds, zero violations, zero
/// aborted runs. Every seed is a full scenario — randomized cluster
/// size, capacity, drain look-ahead, initial jobs, mid-rollout
/// arrivals, server flaps, job bursts, and straggler nodes.
#[test]
fn invariant_sweep_500_seeds() {
    let violations = run_rollout_sweep(0..500);
    assert!(
        violations.is_empty(),
        "{} violations, first few: {:#?}",
        violations.len(),
        &violations[..violations.len().min(5)]
    );
}

/// Spot-check the sweep's coverage claims: across the 500 CI seeds the
/// generator actually produces flaps, bursts, stragglers, and
/// drain-timeout plans — the sweep is not vacuously green.
#[test]
fn sweep_seeds_cover_the_fault_vocabulary() {
    let (mut flaps, mut bursts, mut stragglers, mut timeouts) = (0u32, 0u32, 0u32, 0u32);
    for seed in 0..500 {
        let plan = RolloutPlan::generate(seed);
        for fault in &plan.faults {
            match fault {
                RolloutFault::ServerFlap { .. } => flaps += 1,
                RolloutFault::JobBurst { .. } => bursts += 1,
                RolloutFault::Straggler { .. } => stragglers += 1,
            }
        }
        if plan.drain_timeout_s.is_some() {
            timeouts += 1;
        }
    }
    assert!(flaps > 100, "flaps {flaps}");
    assert!(bursts > 100, "bursts {bursts}");
    assert!(stragglers > 100, "stragglers {stragglers}");
    assert!(timeouts > 50, "timeout plans {timeouts}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Any seed: the standard invariants hold and the rollout completes.
    #[test]
    fn any_seed_satisfies_the_rollout_invariants(seed in 0u64..1_000_000) {
        let record = RolloutPlan::generate(seed).run();
        prop_assert!(
            record.violations.is_empty(),
            "seed {} violated: {:#?}",
            seed,
            record.violations
        );
        let report = record.report.expect("clean run has a report");
        let plan = RolloutPlan::generate(seed);
        prop_assert_eq!(report.reinstalled.len(), plan.n_nodes);
        prop_assert!(report.max_concurrent_installs <= plan.capacity);
        prop_assert!(report.makespan_seconds <= plan.worst_case_seconds());
    }

    /// Same seed, same rollout — makespan, node order, and byte totals
    /// are bit-for-bit reproducible.
    #[test]
    fn rollouts_are_deterministic(seed in 0u64..1_000_000) {
        let a = RolloutPlan::generate(seed).run();
        let b = RolloutPlan::generate(seed).run();
        let (ra, rb) = (a.report.expect("ran"), b.report.expect("ran"));
        prop_assert_eq!(ra.makespan_seconds.to_bits(), rb.makespan_seconds.to_bits());
        prop_assert_eq!(ra.reinstalled, rb.reinstalled);
        prop_assert_eq!(ra.total_bytes, rb.total_bytes);
        prop_assert_eq!(ra.busy_node_seconds.to_bits(), rb.busy_node_seconds.to_bits());
    }

    /// Every job submitted before or during the rollout runs to
    /// completion once the queue settles — the "never disturb running
    /// applications" promise.
    #[test]
    fn no_job_is_ever_lost(seed in 0u64..1_000_000) {
        let plan = RolloutPlan::generate(seed);
        let mut server = PbsServer::new();
        for i in 0..plan.n_nodes {
            server.add_node(&format!("compute-0-{i}"));
        }
        for (i, (nodes, walltime_s)) in plan.initial_jobs.iter().enumerate() {
            let _ = server.qsub(&format!("initial-{i}"), *nodes, *walltime_s);
        }
        schedule(&mut server);
        let cfg = RolloutConfig {
            capacity: plan.capacity,
            drain_ahead: plan.drain_ahead,
            drain_timeout_s: plan.drain_timeout_s,
        };
        let mut backend =
            FixedInstall { seconds: plan.install_seconds, bytes: plan.install_bytes };
        let outcome = run_rollout(
            &mut server,
            &mut backend,
            &cfg,
            &plan.arrivals,
            &plan.faults,
            &mut standard_rollout_invariants(plan.worst_case_seconds()),
            &Tracer::disabled(),
        ).expect("plan rollouts complete");
        prop_assert!(outcome.violations.is_empty(), "{:#?}", outcome.violations);
        rocks_pbs::run_to_completion(&mut server);
        for job in server.jobs() {
            prop_assert!(
                matches!(job.state, JobState::Done { .. }),
                "job {} ended {:?}",
                job.id,
                job.state
            );
        }
        // The cluster came back whole: every node schedulable again.
        prop_assert_eq!(
            server.nodes_in_state(NodeState::Free).len()
                + server.nodes_in_state(NodeState::Busy).len(),
            plan.n_nodes
        );
    }

    /// The capacity governor holds even under a hostile arrival stream:
    /// saturate a small cluster with single-node jobs and check the cap
    /// was never exceeded while everything still reinstalls.
    #[test]
    fn cap_holds_under_saturation(seed in 0u64..100_000, capacity in 1usize..6) {
        let n = 12;
        let mut server = PbsServer::new();
        for i in 0..n {
            server.add_node(&format!("compute-0-{i}"));
        }
        let arrivals: Vec<JobArrival> = (0..40)
            .map(|i| JobArrival {
                at: (seed % 97) as f64 + i as f64 * 13.0,
                name: format!("sat-{i}"),
                nodes: 1 + (i as usize % 3),
                walltime_s: 60.0 + (i as f64 * 7.0) % 240.0,
            })
            .collect();
        let mut backend = FixedInstall { seconds: 480.0, bytes: 1 };
        let outcome = run_rollout(
            &mut server,
            &mut backend,
            &RolloutConfig::with_capacity(capacity),
            &arrivals,
            &[],
            &mut standard_rollout_invariants(1e9),
            &Tracer::disabled(),
        ).expect("completes");
        prop_assert!(outcome.violations.is_empty(), "{:#?}", outcome.violations);
        prop_assert!(outcome.report.max_concurrent_installs <= capacity);
        prop_assert_eq!(outcome.report.reinstalled.len(), n);
    }
}
