//! Property tests on the simulation engine's physical invariants: byte
//! conservation, capacity respect, monotonicity — the laws that make the
//! Table I reproduction trustworthy.

use proptest::prelude::*;
use rocks_netsim::{ClusterSim, SimConfig};
use rocks_netsim::{Engine, Wakeup};

fn tiny_cfg(seed: u64) -> SimConfig {
    SimConfig::paper_testbed(seed).bundled(6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every byte offered to the engine is delivered exactly once.
    #[test]
    fn byte_conservation(
        sizes in proptest::collection::vec(1_000u64..5_000_000, 1..12),
        capacity in 1.0e6f64..20.0e6,
    ) {
        let mut engine = Engine::new(vec![capacity]);
        let total: u64 = sizes.iter().sum();
        for (i, &bytes) in sizes.iter().enumerate() {
            engine.start_flow(0, i, bytes, 8.0e6);
        }
        let mut completions = 0;
        while engine.step() != Wakeup::Idle {
            completions += 1;
        }
        prop_assert_eq!(completions, sizes.len());
        prop_assert!((engine.link_bytes()[0] - total as f64).abs() < 1.0);
    }

    /// Total allocated rate never exceeds server capacity; no flow
    /// exceeds its demand.
    #[test]
    fn capacity_and_demand_respected(
        demands in proptest::collection::vec(0.1e6f64..15.0e6, 1..16),
        capacity in 1.0e6f64..12.0e6,
    ) {
        let mut engine = Engine::new(vec![capacity]);
        let ids: Vec<_> = demands
            .iter()
            .enumerate()
            .map(|(i, &d)| engine.start_flow(0, i, 1_000_000, d))
            .collect();
        let rates: Vec<f64> = ids.iter().map(|id| engine.flow_rate(*id).unwrap()).collect();
        let total: f64 = rates.iter().sum();
        prop_assert!(total <= capacity * 1.000001, "total {total} > capacity {capacity}");
        for (rate, demand) in rates.iter().zip(&demands) {
            prop_assert!(*rate <= demand * 1.000001);
            prop_assert!(*rate >= 0.0);
        }
    }

    /// Max-min fairness: equal-demand flows on one server get equal rates.
    #[test]
    fn equal_demand_equal_rate(n in 2usize..12, capacity in 1.0e6f64..12.0e6) {
        let mut engine = Engine::new(vec![capacity]);
        let ids: Vec<_> = (0..n).map(|i| engine.start_flow(0, i, 1_000_000, 8.0e6)).collect();
        let rates: Vec<f64> = ids.iter().map(|id| engine.flow_rate(*id).unwrap()).collect();
        let first = rates[0];
        for r in &rates {
            prop_assert!((r - first).abs() < 1.0, "unequal rates {rates:?}");
        }
    }

    /// Reinstall wall-clock time is monotone (never decreases) in node
    /// count — the physical premise behind Table I's shape.
    #[test]
    fn total_time_monotone_in_node_count(seed in 0u64..50) {
        let times: Vec<f64> = [1usize, 4, 16]
            .iter()
            .map(|&n| {
                let mut sim = ClusterSim::new(tiny_cfg(seed), n);
                sim.run_reinstall().total_seconds
            })
            .collect();
        // Jitter means near-equality is fine; forbid meaningful decreases.
        prop_assert!(times[1] >= times[0] * 0.93, "{times:?}");
        prop_assert!(times[2] >= times[1] * 0.93, "{times:?}");
    }

    /// Every node completes and per-node time is bounded below by the
    /// physics (CPU install time alone) and above by a gross bound.
    #[test]
    fn per_node_times_are_physical(n in 1usize..10, seed in 0u64..50) {
        let cfg = tiny_cfg(seed);
        let floor = cfg.node_install_seconds();
        let mut sim = ClusterSim::new(cfg, n);
        let result = sim.run_reinstall();
        prop_assert_eq!(result.completed(), n);
        for t in result.per_node_seconds.iter().flatten() {
            prop_assert!(*t > floor, "node faster than its own CPU time: {t}");
            prop_assert!(*t < 3600.0 * 4.0, "node absurdly slow: {t}");
        }
    }

    /// Cluster bytes: n nodes move exactly n × the per-node transfer.
    #[test]
    fn cluster_byte_conservation(n in 1usize..8, seed in 0u64..50) {
        let cfg = tiny_cfg(seed);
        let expected = cfg.node_transfer_bytes() as f64 * n as f64;
        let mut sim = ClusterSim::new(cfg, n);
        let result = sim.run_reinstall();
        let delivered: f64 = result.server_bytes.iter().sum();
        prop_assert!((delivered - expected).abs() < 1024.0,
            "delivered {delivered} expected {expected}");
    }
}
