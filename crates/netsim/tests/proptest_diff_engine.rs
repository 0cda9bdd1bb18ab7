//! Differential property tests: the fast scheduler (class-aggregated
//! rates, virtual-time service, lazy heaps) must be observationally
//! equivalent to the reference per-flow scheduler — identical event kinds
//! and tags in identical order, timestamps within the microsecond
//! quantum, and per-link byte totals within floating-point accumulation
//! noise — across randomized topologies, demands, timer interleavings,
//! and mid-flight server failures.

use proptest::prelude::*;
use rocks_netsim::cluster::{ClusterSim, Fault};
use rocks_netsim::engine::{Engine, EngineMode, Wakeup};
use rocks_netsim::shard::FederatedSim;
use rocks_netsim::{SimConfig, TierConfig};

const MB: f64 = 1e6;

/// One scripted action against the engine, decoded from a raw u64 so the
/// same script drives both engines deterministically.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    StartFlow { route: usize, tag: usize, bytes: u64, demand_bps: f64 },
    StartTimer { tag: usize, delay_us: u64 },
    CancelFlowsTagged { tag: usize },
    CancelTimersTagged { tag: usize },
    SetLink { link: usize, bps: f64 },
    Step { count: u64 },
}

/// Three links: two servers (0, 1) and one cabinet uplink (2).
const ROUTES: [&[usize]; 4] = [&[0], &[1], &[0, 2], &[1, 2]];
/// Two demand levels so many flows share an equivalence class.
const DEMANDS: [f64; 2] = [1.0 * MB, 8.0 * MB];
/// Capacities cycled by SetLink; 0.0 is a mid-flight server failure.
const CAPS: [f64; 3] = [0.0, 4.0 * MB, 11.0 * MB];

fn decode(x: u64) -> Op {
    let tag = ((x / 100) % 5) as usize;
    match x % 100 {
        0..=49 => Op::StartFlow {
            route: ((x / 500) % ROUTES.len() as u64) as usize,
            tag,
            bytes: 50_000 + (x / 800) % 5_000_000,
            demand_bps: DEMANDS[((x / 2_000) % 2) as usize],
        },
        50..=69 => Op::StartTimer { tag, delay_us: 1 + (x / 500) % 3_000_000 },
        70..=79 => Op::CancelFlowsTagged { tag },
        80..=84 => Op::CancelTimersTagged { tag },
        85..=89 => {
            Op::SetLink { link: ((x / 100) % 3) as usize, bps: CAPS[((x / 300) % 3) as usize] }
        }
        _ => Op::Step { count: 1 + (x / 100) % 4 },
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Event {
    kind: &'static str,
    tag: usize,
    at: u64,
}

/// Run the script, then drain to quiescence, logging every wakeup.
fn run_script(ops: &[Op], mode: EngineMode) -> (Vec<Event>, Vec<f64>, u64, usize) {
    let mut engine = Engine::new_with_mode(vec![11.0 * MB, 11.0 * MB, 4.0 * MB], mode);
    let mut events = Vec::new();
    let record = |engine: &mut Engine, events: &mut Vec<Event>| match engine.step() {
        Wakeup::Idle => false,
        Wakeup::FlowDone { tag } => {
            events.push(Event { kind: "flow", tag, at: engine.now() });
            true
        }
        Wakeup::TimerFired { tag } => {
            events.push(Event { kind: "timer", tag, at: engine.now() });
            true
        }
    };
    for &op in ops {
        match op {
            Op::StartFlow { route, tag, bytes, demand_bps } => {
                engine.start_flow_routed(ROUTES[route], tag, bytes, demand_bps);
            }
            Op::StartTimer { tag, delay_us } => engine.start_timer(tag, delay_us),
            Op::CancelFlowsTagged { tag } => engine.cancel_flows_tagged(tag),
            Op::CancelTimersTagged { tag } => engine.cancel_timers_tagged(tag),
            Op::SetLink { link, bps } => engine.set_link_capacity(link, bps),
            Op::Step { count } => {
                for _ in 0..count {
                    if !record(&mut engine, &mut events) {
                        break;
                    }
                }
            }
        }
    }
    // A SetLink(.., 0.0) may have left flows permanently starved, so the
    // drain can end Idle-with-active-flows; both engines must then agree
    // on the leftover count.
    let mut guard = 0;
    while record(&mut engine, &mut events) {
        guard += 1;
        assert!(guard < 20_000, "runaway drain in {mode:?}");
    }
    (events, engine.link_bytes().to_vec(), engine.now(), engine.active_flows())
}

fn assert_equivalent(ops: &[Op]) {
    let (fast_ev, fast_bytes, fast_now, fast_left) = run_script(ops, EngineMode::Fast);
    let (ref_ev, ref_bytes, ref_now, ref_left) = run_script(ops, EngineMode::Reference);

    assert_eq!(fast_ev.len(), ref_ev.len(), "event counts differ");
    for (f, r) in fast_ev.iter().zip(&ref_ev) {
        assert_eq!(f.kind, r.kind, "kind mismatch: {f:?} vs {r:?}");
        assert_eq!(f.tag, r.tag, "tag mismatch: {f:?} vs {r:?}");
        // Completion instants are quantized to microseconds; the two
        // paths accumulate floating point in different orders, so the
        // final quantum may differ by one.
        assert!(f.at.abs_diff(r.at) <= 1, "timestamp mismatch: {f:?} vs {r:?}");
    }
    assert!(fast_now.abs_diff(ref_now) <= 1, "clock mismatch: {fast_now} vs {ref_now}");
    assert_eq!(fast_left, ref_left, "leftover active flows differ");
    for (link, (f, r)) in fast_bytes.iter().zip(&ref_bytes).enumerate() {
        let tolerance = 4.0_f64.max(r.abs() * 1e-6);
        assert!((f - r).abs() <= tolerance, "link {link} bytes: fast {f} vs ref {r}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary op scripts: flows across four routes and two demand
    /// classes, timers, tagged cancellations, capacity changes (including
    /// to zero — a dead server), interleaved with stepping.
    #[test]
    fn fast_engine_equals_reference(raw in proptest::collection::vec(0u64..u64::MAX, 1..60)) {
        let ops: Vec<Op> = raw.iter().map(|&x| decode(x)).collect();
        assert_equivalent(&ops);
    }

    /// Heavy same-class load: hundreds of identical flows (the mass-
    /// reinstall shape) with a timer storm on top.
    #[test]
    fn fast_engine_equals_reference_single_class(
        n in 50usize..200,
        bytes in 100_000u64..2_000_000,
        timers in 0usize..20,
    ) {
        let mut ops: Vec<Op> = (0..n)
            .map(|i| Op::StartFlow {
                route: 0,
                tag: i % 5,
                bytes: bytes + i as u64, // distinct sizes, same class
                demand_bps: DEMANDS[1],
            })
            .collect();
        for t in 0..timers {
            ops.push(Op::StartTimer { tag: t % 5, delay_us: 1 + 77_777 * t as u64 });
        }
        ops.push(Op::Step { count: 3 });
        ops.push(Op::CancelFlowsTagged { tag: 2 });
        assert_equivalent(&ops);
    }

    /// Mid-flight server failure and recovery while flows are active.
    #[test]
    fn fast_engine_equals_reference_under_failure(
        n in 2usize..40,
        fail_after in 1u64..6,
    ) {
        let mut ops: Vec<Op> = (0..n)
            .map(|i| Op::StartFlow {
                route: i % ROUTES.len(),
                tag: i % 5,
                bytes: 400_000 + 31_337 * i as u64,
                demand_bps: DEMANDS[i % 2],
            })
            .collect();
        ops.push(Op::Step { count: fail_after });
        ops.push(Op::SetLink { link: 0, bps: 0.0 });
        ops.push(Op::StartTimer { tag: 0, delay_us: 2_500_000 });
        ops.push(Op::Step { count: 2 });
        ops.push(Op::SetLink { link: 0, bps: 11.0 * MB });
        assert_equivalent(&ops);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Whole-cluster differential: node FSMs, faults, and power cycles on
    /// top of both engines must give the same reinstall profile and the
    /// same per-node log text.
    #[test]
    fn cluster_fast_equals_reference(
        seed in 0u64..1000,
        n in 1usize..20,
        down_at in 40.0f64..200.0,
        outage in 20.0f64..200.0,
    ) {
        let run = |mode: EngineMode| {
            let mut cfg = SimConfig::paper_testbed(seed).bundled(6);
            cfg.n_servers = 2;
            let mut sim = ClusterSim::new_with_mode(cfg, n, mode);
            sim.inject_fault_at(down_at, Fault::ServerDown(0));
            sim.inject_fault_at(down_at + outage, Fault::ServerUp(0));
            sim.inject_fault_at(down_at + 10.0, Fault::PowerCycle(n / 2));
            let result = sim.try_run_reinstall().expect("server comes back, so no stall");
            let logs: Vec<(u64, String)> = sim
                .nodes()
                .iter()
                .flat_map(|node| node.log.iter().map(|l| (l.at, l.text.clone())))
                .collect();
            (result, logs)
        };
        let (fast, fast_logs) = run(EngineMode::Fast);
        let (reference, ref_logs) = run(EngineMode::Reference);
        prop_assert_eq!(fast.completed(), reference.completed());
        prop_assert!((fast.total_seconds - reference.total_seconds).abs() < 1e-3,
            "total {} vs {}", fast.total_seconds, reference.total_seconds);
        for (f, r) in fast.server_bytes.iter().zip(&reference.server_bytes) {
            prop_assert!((f - r).abs() <= 4.0_f64.max(r.abs() * 1e-9),
                "server bytes fast {f} vs ref {r}");
        }
        // Same log lines in the same order; timestamps may differ by the
        // single-microsecond rounding quantum.
        prop_assert_eq!(fast_logs.len(), ref_logs.len());
        for ((fat, ftext), (rat, rtext)) in fast_logs.iter().zip(&ref_logs) {
            prop_assert_eq!(ftext, rtext);
            prop_assert!(fat.abs_diff(*rat) <= 1, "{} vs {} for {}", fat, rat, ftext);
        }
    }
}

/// Everything observable about one federated run: the install profile,
/// per-link byte ledgers of every shard (bit patterns — we demand exact
/// equality, not tolerance), the ordered per-node event logs, and the
/// telemetry snapshot.
#[derive(Debug, PartialEq)]
struct FederatedObservation {
    per_node_seconds: Vec<Option<f64>>,
    total_bits: u64,
    link_byte_bits: Vec<Vec<u64>>,
    logs: Vec<(u64, String)>,
    counters: rocks_trace::Snapshot,
    events: u64,
}

fn observe_federated(
    seed: u64,
    n: usize,
    threads: usize,
    fault: Option<(f64, Fault)>,
) -> FederatedObservation {
    let cfg = SimConfig::paper_testbed(seed).bundled(6);
    let tiers = TierConfig { cabinet_size: 4, cabinets_per_campus: 2, ..TierConfig::standard() };
    let tracer = rocks_trace::Tracer::ring_sim(1 << 12);
    let mut sim = FederatedSim::new_tiered(cfg, tiers, n);
    sim.set_threads(threads);
    sim.set_tracer(tracer.clone());
    if let Some((at, fault)) = fault {
        sim.inject_fault_at(at, fault);
    }
    // Faults here never wedge the cluster, so the run must complete.
    let result = sim.try_run_reinstall().expect("federated run completes");
    FederatedObservation {
        per_node_seconds: result.per_node_seconds,
        total_bits: result.total_seconds.to_bits(),
        link_byte_bits: sim
            .shard_link_bytes()
            .into_iter()
            .map(|links| links.into_iter().map(f64::to_bits).collect())
            .collect(),
        logs: sim.nodes().flat_map(|nd| nd.log.iter().map(|l| (l.at, l.text.clone()))).collect(),
        counters: tracer.registry().expect("ring_sim carries a registry").snapshot(),
        events: sim.events(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Worker-thread count must be invisible: 1, 2, and 8 threads give
    /// the same event order (per-node logs), the same per-link byte
    /// totals bit for bit, and the same trace snapshot for one seed.
    #[test]
    fn federated_run_is_thread_count_invariant(
        seed in 0u64..1000,
        n in 4usize..24,
        fault_kind in 0usize..3,
        fault_at in 30.0f64..240.0,
    ) {
        let fault = match fault_kind {
            0 => None,
            1 => Some((fault_at, Fault::PowerCycle(n / 2))),
            _ => Some((fault_at, Fault::NodeHang(n - 1))),
        };
        let serial = observe_federated(seed, n, 1, fault.clone());
        prop_assert!(!serial.logs.is_empty(), "nodes must log their install");
        for threads in [2usize, 8] {
            let threaded = observe_federated(seed, n, threads, fault.clone());
            prop_assert_eq!(&threaded, &serial, "{} workers diverged from serial", threads);
        }
    }
}
