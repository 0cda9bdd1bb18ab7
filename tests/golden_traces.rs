//! Golden-trace snapshot suite.
//!
//! Every scenario here runs a pinned workload under a recording tracer
//! and compares the *normalized* dump (stable span numbering, quantized
//! virtual timestamps, wall-clock counters excluded) byte-for-byte
//! against a file under `tests/golden/`. Any change to instrumentation
//! points, event ordering, or the simulations themselves shows up as a
//! precise diff rather than a silent drift.
//!
//! To regenerate after an *intentional* change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_traces
//! ```

use rocks::core::Cluster;
use rocks::netsim::{ChaosPlan, ClusterSim};
use rocks::netsim::{EngineMode, SimConfig};
use rocks::trace::Tracer;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{name}.trace"))
}

/// Compare `trace` against the committed golden file (or rewrite it when
/// `UPDATE_GOLDEN` is set).
fn check_golden(name: &str, trace: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, trace).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden trace {}: {e}; regenerate with UPDATE_GOLDEN=1", path.display())
    });
    assert_eq!(
        expected, trace,
        "golden trace {name} drifted; if intentional, regenerate with \
         UPDATE_GOLDEN=1 cargo test --test golden_traces"
    );
}

/// The tracer's normalized dump, once the ring is known to have kept
/// every event: a truncated trace would otherwise be compared with a
/// truncated golden.
fn normalized(tracer: &Tracer, quantum: u64) -> String {
    let dump = tracer.dump();
    assert_eq!(dump.dropped, 0, "the trace ring overflowed; give it more capacity");
    dump.normalized(quantum)
}

/// Fig-4 workload: frontend install, one integrated rack, then every
/// profile generated through the caching service. Generation runs on the
/// calling thread, so cache hit/miss interleaving is pinned; the tracer's
/// logical clock makes the event order itself the timestamp.
fn bringup_trace() -> String {
    let mut cluster =
        Cluster::install_frontend_traced("00:30:c1:d8:ac:80", 21, Tracer::ring(1 << 16)).unwrap();
    let macs: Vec<String> = (0..4).map(|i| format!("00:50:8b:00:00:{i:02x}")).collect();
    cluster.integrate_rack("Compute", 0, &macs).unwrap();
    cluster.generate_kickstarts().unwrap();
    normalized(cluster.tracer(), 1)
}

/// A 16-node mass reinstall under `mode`, timestamps quantized to
/// milliseconds (the cross-engine agreement tolerance is a microsecond).
fn mass_reinstall_trace(mode: EngineMode) -> String {
    let cfg = SimConfig::paper_testbed(1).bundled(12);
    let mut sim = ClusterSim::new_with_mode(cfg, 16, mode);
    sim.set_tracer(Tracer::ring_sim(1 << 18));
    sim.run_reinstall();
    normalized(sim.tracer(), 1000)
}

/// Chaos corpus seed 7 (the flapping-server scenario: 11 nodes, four
/// server down/up pairs, seven failovers) under `mode`.
fn chaos_trace(mode: EngineMode) -> String {
    let plan = ChaosPlan::generate(7);
    let mut sim = plan.build(mode);
    sim.set_tracer(Tracer::ring_sim(1 << 18));
    sim.run_reinstall();
    normalized(sim.tracer(), 1000)
}

/// A 64-client closed-loop serve run against the timing-model backend,
/// with a shard stall and a cache storm mid-run: the serve.run span,
/// eight progress ticks, both fault marks, and the frontend counters.
/// Virtual-time timestamps are exact (single engine), so no quantization
/// beyond the microsecond clock itself.
fn serve_64_clients_trace() -> String {
    use rocks::serve::{run_serve, Arrivals, ModelBackend, ServeConfig, ServeFault, Workload};
    let cfg = ServeConfig { shards: 4, workers_per_shard: 2, ..ServeConfig::default() };
    let wl = Workload {
        seed: 64,
        arrivals: Arrivals::Closed { clients: 64, think_us: 300 },
        horizon_us: 50_000,
        report_permille: 250,
        faults: vec![
            ServeFault::ShardStall { shard: 2, at_us: 18_000, dur_us: 9_000 },
            ServeFault::CacheStorm { at_us: 32_000 },
        ],
    };
    let tracer = Tracer::ring_sim(1 << 16);
    let mut backend = ModelBackend::new(64, 4, 6);
    let (report, _) = run_serve(&cfg, &wl, &mut backend, &tracer);
    assert!(report.violations.is_empty(), "violations: {:?}", report.violations);
    normalized(&tracer, 1)
}

#[test]
fn serve_64_client_trace_is_golden() {
    let first = serve_64_clients_trace();
    let second = serve_64_clients_trace();
    assert_eq!(first, second, "same seed must produce the same serve trace");
    check_golden("serve_64_clients", &first);
}

#[test]
fn fig4_bringup_trace_is_golden() {
    let first = bringup_trace();
    let second = bringup_trace();
    assert_eq!(first, second, "same seed must produce the same bringup trace");
    check_golden("fig4_bringup", &first);
}

#[test]
fn mass_reinstall_trace_is_golden_across_engine_modes() {
    let fast = mass_reinstall_trace(EngineMode::Fast);
    let fast_again = mass_reinstall_trace(EngineMode::Fast);
    assert_eq!(fast, fast_again, "same seed must produce the same reinstall trace");
    let reference = mass_reinstall_trace(EngineMode::Reference);
    assert_eq!(fast, reference, "fast and reference engines must trace identically");
    check_golden("mass_reinstall_16", &fast);
}

#[test]
fn chaos_seed7_trace_is_golden_across_engine_modes() {
    let fast = chaos_trace(EngineMode::Fast);
    let fast_again = chaos_trace(EngineMode::Fast);
    assert_eq!(fast, fast_again, "same seed must produce the same chaos trace");
    let reference = chaos_trace(EngineMode::Reference);
    assert_eq!(fast, reference, "fast and reference engines must trace identically");
    check_golden("chaos_seed7", &fast);
}
