//! Seed-corpus regression suite for the chaos harness.
//!
//! The property tests assert *invariants* over arbitrary seeds; this file
//! pins *exact outcomes* for a corpus of interesting seeds so that any
//! behavioural drift in the retry protocol, the failover ring, the fault
//! machinery, or the generator itself shows up as a precise diff rather
//! than a silent change. The corpus was selected from a scan of seeds
//! 0..200 (see `crates/netsim/examples/chaos_scan.rs`, which regenerates
//! every pinned number) to cover: flapping servers, permanent server loss
//! with failover, node hangs left unrecoverable, hang-then-power-cycle
//! recovery, power-cycle races, cabinet topologies, and link degradation.

use rocks::db::insert_ethers::{register_frontend, DhcpRequest, InsertEthers};
use rocks::db::{reports, ClusterDb, DbError};
use rocks::kickstart::{profiles, GenerationService, KickstartGenerator};
use rocks::netsim::chaos::{run_plan, standard_invariants, ChaosPlan};
use rocks::netsim::cluster::{ClusterSim, Fault};
use rocks::netsim::config::RetryPolicy;
use rocks::netsim::{EngineMode, SimConfig};
use rocks::rpm::Arch;
use rocks::sql::disk::CrashPlan;
use rocks::sql::{DiskError, DurableError, MemVfs};

/// `(seed, nodes, completed, unrecoverable, total attempts, failovers)`.
///
/// Every row also implicitly asserts zero invariant violations.
const CORPUS: &[(u64, usize, usize, usize, u64, u64)] = &[
    // Two permanent server losses + a power cycle ride the failover ring.
    (0, 7, 7, 0, 57, 3),
    // Flap + permanent loss + three power cycles on a 2-server cluster.
    (1, 9, 9, 0, 55, 9),
    // A hang with no later power cycle: one node stays down by design.
    (2, 7, 6, 1, 55, 0),
    // Single server: flap + hang + power cycles, no failover possible.
    (4, 13, 13, 0, 95, 0),
    (5, 7, 7, 0, 54, 0),
    // Cabinet tier under an 11-fault storm.
    (6, 3, 3, 0, 15, 1),
    // The flapping-server seed: four down/up pairs, seven failovers.
    (7, 11, 11, 0, 89, 7),
    (9, 7, 7, 0, 50, 2),
    // Two hangs, one unrecoverable, on a single-server cluster.
    (11, 12, 11, 1, 89, 0),
    // Twelve faults, yet nothing needs a retry: bounded blast radius.
    (12, 12, 12, 0, 64, 0),
    // Smallest cluster: cabinet + permanent server loss.
    (13, 2, 2, 0, 16, 0),
    // Hang-during-backoff flavour: a flap overlaps the retry loop.
    (14, 12, 12, 0, 60, 0),
    // Largest topology with a flap across three replicas.
    (17, 16, 16, 0, 115, 3),
    // Three permanent losses, survivors found via seven failovers.
    (26, 6, 6, 0, 51, 7),
    (38, 11, 10, 1, 76, 4),
    // Two permanent losses among three replicas, 15 nodes.
    (41, 15, 15, 0, 127, 5),
    (45, 10, 10, 0, 70, 0),
    (50, 16, 16, 0, 140, 5),
    // Four link degradations plus an unrecoverable hang.
    (52, 15, 14, 1, 104, 0),
    // The heaviest failover seed: 13 rotations across a cabinet fabric.
    (60, 16, 16, 0, 118, 13),
    // Two unrecoverable hangs in one schedule.
    (67, 11, 9, 2, 52, 3),
];

#[test]
fn pinned_seeds_replay_exactly() {
    for &(seed, nodes, completed, unrecoverable, attempts, failovers) in CORPUS {
        let plan = ChaosPlan::generate(seed);
        assert_eq!(plan.n_nodes, nodes, "seed {seed}: topology drifted");
        let record = run_plan(&plan, EngineMode::Fast, &mut standard_invariants());
        assert!(record.violations.is_empty(), "seed {seed}: {:#?}", record.violations);
        assert_eq!(record.completed, completed, "seed {seed}: completed drifted");
        assert_eq!(record.unrecoverable, unrecoverable, "seed {seed}: recoverability drifted");
        assert_eq!(record.result.total_attempts(), attempts, "seed {seed}: attempts drifted");
        assert_eq!(record.result.total_failovers(), failovers, "seed {seed}: failovers drifted");
    }
}

/// The fixed policy the hand-crafted scenarios below run under; changing
/// it invalidates their pinned attempt counts on purpose.
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

#[test]
fn flapping_server_burns_exactly_the_pinned_retries() {
    // One server that flaps three times while four nodes install. The
    // fault-free baseline is 7 fetches per node (kickstart + 6 bundles);
    // the flaps cost node 1 two extra attempts and the rest one each.
    let mut sim = ClusterSim::new(scenario_cfg(1), 4);
    for (down, up) in [(100.0, 160.0), (200.0, 260.0), (300.0, 360.0)] {
        sim.inject_fault_at(down, Fault::ServerDown(0));
        sim.inject_fault_at(up, Fault::ServerUp(0));
    }
    let result = sim.try_run_reinstall().expect("the server always comes back");
    assert_eq!(result.completed(), 4);
    assert_eq!(result.per_node_attempts, vec![8, 9, 8, 8]);
    assert_eq!(result.per_node_failovers, vec![0; 4], "nowhere to fail over to");
    assert!(result.total_backoff_seconds() > 0.0);
}

#[test]
fn hang_during_backoff_recovers_after_power_cycle() {
    // Node 0 hangs *while waiting out a retry backoff* (the server went
    // down at t=50, so by t=80 it is mid-timeout/backoff). The hang must
    // freeze the retry loop cleanly; the later power cycle restarts the
    // node from POST with a fresh attempt budget, and it completes.
    let mut sim = ClusterSim::new(scenario_cfg(1), 2);
    sim.inject_fault_at(50.0, Fault::ServerDown(0));
    sim.inject_fault_at(80.0, Fault::NodeHang(0));
    sim.inject_fault_at(200.0, Fault::ServerUp(0));
    sim.inject_fault_at(260.0, Fault::PowerCycle(0));
    let result = sim.try_run_reinstall().expect("cycled node reinstalls cleanly");
    assert_eq!(result.completed(), 2);
    assert_eq!(result.per_node_attempts, vec![8, 9]);
}

#[test]
fn power_cycle_race_restarts_mid_fetch_cleanly() {
    // A spurious PDU cycle hits node 1 mid-install on a healthy cluster:
    // its first life's 3 fetches are wasted, the second life re-runs all
    // 7, and the bystanders are untouched at the 7-fetch baseline.
    let mut sim = ClusterSim::new(scenario_cfg(2), 3);
    sim.inject_fault_at(150.0, Fault::PowerCycle(1));
    let result = sim.try_run_reinstall().expect("healthy cluster completes");
    assert_eq!(result.completed(), 3);
    assert_eq!(result.per_node_attempts, vec![7, 10, 7]);
    assert_eq!(result.total_failovers(), 0);
}

// ---------------------------------------------------------------------------
// Durable cluster database under crash chaos.
//
// The rows below pin exact post-recovery outcomes for seeded kills of the
// durable `ClusterDb` mid-transaction during a mass-reinstall wave, the
// same way the netsim corpus above pins retry counts. Beyond the pins,
// every seed asserts the *consistency* story: transactions are atomic
// (a node is never half-marked), and after recovery serving kickstarts
// and generating reports are reads: they all observe one single
// database revision.
// ---------------------------------------------------------------------------

/// Frontend plus six compute nodes in a durable database on `vfs`.
fn durable_cluster(vfs: &MemVfs) -> ClusterDb {
    let mut db = ClusterDb::open_durable(vfs).unwrap();
    register_frontend(&mut db, "00:30:c1:d8:ac:80", "frontend-0").unwrap();
    let mut session = InsertEthers::start(&mut db, "Compute", 0).unwrap();
    let reqs: Vec<DhcpRequest> =
        (1..=6).map(|i| DhcpRequest { mac: format!("00:50:8b:e0:00:{i:02x}") }).collect();
    session.observe_all(&reqs).unwrap();
    db
}

/// Mark every compute node for reinstall, one two-statement transaction
/// per node (comment tag + rank bump — two fields so a torn transaction
/// would be visible as a half-marked node).
fn reinstall_wave(db: &mut ClusterDb) -> Result<(), DbError> {
    let nodes = db.compute_nodes()?;
    for rec in nodes {
        db.begin_txn()?;
        db.execute_raw(&format!("update nodes set comment = 'wave-1' where id = {}", rec.id))?;
        db.execute_raw(&format!(
            "update nodes set rank = {} where id = {}",
            rec.rank + 100,
            rec.id
        ))?;
        db.commit_txn()?;
    }
    Ok(())
}

fn is_crash(err: &DbError) -> bool {
    matches!(err, DbError::Storage(DurableError::Disk(DiskError::Crashed)))
}

/// `(kill op, damage seed, nodes fully marked after recovery, revision)`.
const DB_CRASH_CORPUS: &[(u64, u64, usize, u64)] = &[
    // Killed while journaling the very first transaction of the wave.
    (2, 101, 0, 7),
    // Killed right after the first commit's sync.
    (5, 102, 1, 9),
    // Mid-second-transaction: its frames are on disk, its commit is not.
    (9, 103, 1, 9),
    (14, 104, 2, 11),
    (23, 105, 4, 15),
    // Killed during the last transaction: five of six nodes marked.
    (29, 106, 5, 17),
];

#[test]
fn durable_db_killed_mid_reinstall_recovers_one_consistent_revision() {
    for &(at_op, seed, want_marked, want_revision) in DB_CRASH_CORPUS {
        let vfs = MemVfs::new();
        let mut db = durable_cluster(&vfs);
        // arm() restarts the op counter: `at_op` counts mutating disk
        // operations from the start of the wave itself.
        vfs.arm(CrashPlan { at_op, seed });
        let err = reinstall_wave(&mut db).expect_err("armed wave must die");
        assert!(is_crash(&err), "seed {seed}: wave failed for a non-crash reason: {err}");
        drop(db);

        let survivor = vfs.survivor();
        let mut db = ClusterDb::open_durable(&survivor).unwrap();
        let nodes = db.compute_nodes().unwrap();
        assert_eq!(nodes.len(), 6, "seed {seed}: integrated nodes lost");

        // Transaction atomicity: comment tag and rank bump land together
        // or not at all.
        let marked = nodes.iter().filter(|n| n.comment.as_deref() == Some("wave-1")).count();
        for n in &nodes {
            assert_eq!(
                n.comment.as_deref() == Some("wave-1"),
                n.rank >= 100,
                "seed {seed}: node {} is half-marked (comment={:?} rank={})",
                n.name,
                n.comment,
                n.rank
            );
        }
        assert_eq!(marked, want_marked, "seed {seed}: committed prefix drifted");
        assert_eq!(db.revision(), want_revision, "seed {seed}: revision drifted");

        // Post-recovery consistency: kickstart serving and report
        // generation all observe this one revision.
        let rev = db.revision();
        let service = GenerationService::new(KickstartGenerator::new(
            profiles::default_profiles(),
            "10.1.1.1",
            "install/rocks-dist",
        ));
        let mut renders = Vec::new();
        for n in &nodes {
            let ks = service.generate_for_request(&db, &n.ip.to_string(), Arch::I686).unwrap();
            renders.push(ks.render());
        }
        assert_eq!(
            service.stats().misses(),
            1,
            "seed {seed}: one appliance skeleton should serve every node of the revision"
        );
        assert_eq!(service.stats().hits() as usize, nodes.len() - 1, "seed {seed}");
        assert_eq!(db.revision(), rev, "seed {seed}: serving kickstarts bumped the revision");

        // Reports are pure reads and byte-stable across a second recovery.
        let first = reports::generate_all(&mut db).unwrap();
        assert_eq!(db.revision(), rev, "seed {seed}: report generation bumped the revision");
        let mut again = ClusterDb::open_durable(&survivor).unwrap();
        assert_eq!(again.revision(), rev, "seed {seed}: second recovery saw another revision");
        let second = reports::generate_all(&mut again).unwrap();
        assert_eq!(first.hosts, second.hosts, "seed {seed}");
        assert_eq!(first.dhcpd_conf, second.dhcpd_conf, "seed {seed}");
        assert_eq!(first.pbs_nodes, second.pbs_nodes, "seed {seed}");
        for (n, render) in nodes.iter().zip(&renders) {
            let ks = service.generate_for_request(&again, &n.ip.to_string(), Arch::I686).unwrap();
            assert_eq!(&ks.render(), render, "seed {seed}: kickstart for {} drifted", n.name);
        }
    }
}

/// An unarmed wave commits everything — the corpus' baseline.
#[test]
fn unharmed_reinstall_wave_marks_every_node() {
    let vfs = MemVfs::new();
    let mut db = durable_cluster(&vfs);
    reinstall_wave(&mut db).unwrap();
    drop(db);
    let db = ClusterDb::open_durable(&vfs).unwrap();
    let nodes = db.compute_nodes().unwrap();
    assert_eq!(nodes.iter().filter(|n| n.comment.as_deref() == Some("wave-1")).count(), 6);
}

// ---------------------------------------------------------------------------
// Rolling-reinstall orchestrator under chaos.
//
// Pinned scenarios for the §5 rollout: the orchestrator drains nodes
// through the scheduler, installs in capacity-capped waves, and readmits
// — here with the install server flapping mid-wave, job bursts landing
// mid-drain, and straggler nodes hitting the watchdog failover, exactly
// the operational storms the Fermilab/CERN cluster-ops papers describe.
// Every scenario also asserts zero standard-invariant violations.
// ---------------------------------------------------------------------------

fn rollout_server(n: usize) -> rocks::pbs::PbsServer {
    let mut s = rocks::pbs::PbsServer::new();
    for i in 0..n {
        s.add_node(&format!("compute-0-{i}"));
    }
    s
}

fn run_rollout_scenario(
    server: &mut rocks::pbs::PbsServer,
    backend: &mut dyn rocks::pbs::InstallBackend,
    cfg: &rocks::pbs::RolloutConfig,
    arrivals: &[rocks::pbs::JobArrival],
    faults: &[rocks::pbs::RolloutFault],
) -> rocks::pbs::RolloutOutcome {
    let bound = 1e9;
    let out = rocks::pbs::run_rollout(
        server,
        backend,
        cfg,
        arrivals,
        faults,
        &mut rocks::pbs::standard_rollout_invariants(bound),
        &rocks::trace::Tracer::disabled(),
    )
    .expect("scenario completes");
    assert!(out.violations.is_empty(), "invariants violated: {:#?}", out.violations);
    out
}

#[test]
fn rollout_server_flap_mid_wave_pauses_exactly_the_outage() {
    // 16 nodes, capacity 4, six 2-node/400 s jobs running at drain time.
    // The install server drops out 700→1000 s — squarely inside the
    // second wave — and every in-flight leg freezes for those 300 s.
    let mut s = rollout_server(16);
    for i in 0..6 {
        s.qsub(&format!("j{i}"), 2, 400.0).unwrap();
    }
    rocks::pbs::scheduler::schedule(&mut s);
    let mut backend = rocks::pbs::FixedInstall { seconds: 600.0, bytes: 5_000 };
    let out = run_rollout_scenario(
        &mut s,
        &mut backend,
        &rocks::pbs::RolloutConfig::with_capacity(4),
        &[],
        &[rocks::pbs::RolloutFault::ServerFlap { down_at: 700.0, up_at: 1000.0 }],
    );
    assert!((out.report.flap_pause_seconds - 300.0).abs() < 1e-6);
    assert!((out.report.makespan_seconds - 2700.0).abs() < 1e-6);
    assert_eq!(out.report.jobs_completed_during, 6, "all six jobs finished undisturbed");
    assert_eq!(out.report.max_concurrent_installs, 4);
    assert_eq!(out.report.reinstalled.len(), 16);
}

#[test]
fn rollout_job_burst_during_drain_keeps_flowing() {
    // Four 2-node jobs run when the drain begins; at t=50 a burst of five
    // more lands. The scheduler keeps placing them on the untouched
    // portion: all nine jobs complete during the rollout, none are
    // killed, and the rollout still converges.
    let mut s = rollout_server(12);
    for i in 0..4 {
        s.qsub(&format!("pre{i}"), 2, 500.0).unwrap();
    }
    rocks::pbs::scheduler::schedule(&mut s);
    let mut backend = rocks::pbs::FixedInstall { seconds: 600.0, bytes: 5_000 };
    let out = run_rollout_scenario(
        &mut s,
        &mut backend,
        &rocks::pbs::RolloutConfig::with_capacity(3),
        &[],
        &[rocks::pbs::RolloutFault::JobBurst {
            at: 50.0,
            jobs: 5,
            nodes_each: 2,
            walltime_s: 200.0,
        }],
    );
    assert_eq!(out.report.jobs_started_during, 5, "every burst job got nodes mid-rollout");
    assert_eq!(out.report.jobs_completed_during, 9);
    assert!((out.report.makespan_seconds - 2400.0).abs() < 1e-6);
    assert!((out.report.busy_node_seconds - 4700.0).abs() < 1e-6, "throughput integral drifted");
}

#[test]
fn rollout_straggler_hits_watchdog_failover_once() {
    // Node 3's leg pays a 450 s watchdog-failover penalty on top of the
    // 600 s install. The wave containing it stretches; everyone else is
    // untouched.
    let mut s = rollout_server(8);
    s.qsub("w", 4, 300.0).unwrap();
    rocks::pbs::scheduler::schedule(&mut s);
    let mut backend = rocks::pbs::FixedInstall { seconds: 600.0, bytes: 5_000 };
    let out = run_rollout_scenario(
        &mut s,
        &mut backend,
        &rocks::pbs::RolloutConfig::with_capacity(2),
        &[],
        &[rocks::pbs::RolloutFault::Straggler { node_index: 3, extra_seconds: 450.0 }],
    );
    assert_eq!(out.report.straggler_failovers, 1);
    assert!((out.report.per_node_install_seconds["compute-0-3"] - 1050.0).abs() < 1e-6);
    assert!((out.report.makespan_seconds - 2850.0).abs() < 1e-6);
}

#[test]
fn rollout_netsim_backed_flap_plus_burst_replays_exactly() {
    // The full stack: install legs calibrated by the netsim reinstall
    // engine at the live concurrency, a 300 s server flap, a job burst,
    // and a mid-rollout arrival. Byte totals and the millisecond-rounded
    // makespan are pinned — any drift in the orchestrator, the
    // scheduler, or the netsim contention curve shows up here.
    let mut s = rollout_server(16);
    for i in 0..4 {
        s.qsub(&format!("pre{i}"), 3, 600.0).unwrap();
    }
    rocks::pbs::scheduler::schedule(&mut s);
    let mut backend = rocks::netsim::NetsimInstallBackend::new(
        rocks::netsim::SimConfig::paper_testbed(7).bundled(6),
    );
    let out = run_rollout_scenario(
        &mut s,
        &mut backend,
        &rocks::pbs::RolloutConfig::with_capacity(7),
        &[rocks::pbs::JobArrival { at: 400.0, name: "mid".into(), nodes: 2, walltime_s: 300.0 }],
        &[
            rocks::pbs::RolloutFault::ServerFlap { down_at: 300.0, up_at: 600.0 },
            rocks::pbs::RolloutFault::JobBurst {
                at: 100.0,
                jobs: 3,
                nodes_each: 2,
                walltime_s: 250.0,
            },
        ],
    );
    assert_eq!((out.report.makespan_seconds * 1000.0).round() as u64, 2_351_909);
    assert!((out.report.flap_pause_seconds - 300.0).abs() < 1e-6);
    assert_eq!(out.report.total_bytes, 3_776_445_303);
    assert_eq!(out.report.max_concurrent_installs, 7);
    assert_eq!(out.report.jobs_started_during, 4);
    assert_eq!(out.report.reinstalled.len(), 16);
}

/// `(seed, nodes, capacity, makespan ms, max concurrent, stragglers,
/// jobs started mid-rollout)` — generated-plan pins, all with zero
/// violations, selected to cover low/high capacity and every fault kind.
const ROLLOUT_CORPUS: &[(u64, usize, usize, u64, usize, u64, u64)] = &[
    // Capacity-7 rollout with arrivals riding the untouched portion.
    (3, 20, 7, 1_918_158, 7, 0, 6),
    // Capacity-2 crawl across 28 nodes with a straggler: the long tail.
    (11, 28, 2, 6_928_192, 2, 1, 12),
    // Largest generated topology, straggler plus heavy arrivals.
    (21, 32, 4, 3_703_537, 4, 1, 15),
    (34, 17, 4, 3_880_671, 4, 0, 7),
    // Burst-heavy seed: twenty jobs placed while rolling.
    (55, 27, 3, 2_352_684, 3, 1, 20),
    // Two stragglers in one rollout.
    (89, 27, 5, 4_190_530, 5, 2, 19),
];

// ---------------------------------------------------------------------------
// Kickstart serving frontend under load chaos.
//
// Pinned scenarios for the §6.1 serving frontend: the same
// fault-injection vocabulary as the netsim corpus above, but the storms
// hit the request path — a 10× arrival burst (a rack power-cycling into
// reinstall at once), a frozen worker shard mid-overload, and a
// dist-rebuild cache invalidation mid-run. Every scenario runs the
// deterministic timing-model backend on the virtual clock, pins its
// exact outcome tuple against a fault-free twin, and asserts zero
// invariant violations (conservation, bounded queue, no starvation).
// ---------------------------------------------------------------------------

use rocks::serve::{
    run_serve, Arrivals, ModelBackend, ServeConfig, ServeFault, ServeReport, Workload,
};
use rocks::trace::Tracer;

fn run_serve_scenario(cfg: &ServeConfig, wl: &Workload, mut backend: ModelBackend) -> ServeReport {
    let (report, _) = run_serve(cfg, wl, &mut backend, &Tracer::disabled());
    assert!(report.violations.is_empty(), "serve invariants violated: {:#?}", report.violations);
    report
}

#[test]
fn serve_burst_at_ten_x_sheds_and_recovers_exactly() {
    // Steady 40k rps open-loop fits comfortably in 2×2 workers; a 10×
    // burst window (10–20 ms) slams the 64-deep queue into its 48
    // high-water mark. Shed requests retry (8-attempt budget), so the
    // burst amplifies arrivals ~21× over the calm twin — and admission
    // holds the line: the queue never passes high water, and every
    // admitted request completes.
    let cfg = ServeConfig {
        shards: 2,
        workers_per_shard: 2,
        queue_cap: 64,
        high_water: 48,
        retry_after_us: 1500,
        ..ServeConfig::default()
    };
    let wl = Workload {
        seed: 1001,
        arrivals: Arrivals::Open { rate_rps: 40_000.0, retry_shed: true },
        horizon_us: 40_000,
        report_permille: 200,
        faults: vec![ServeFault::Burst { at_us: 10_000, dur_us: 10_000, factor: 10.0 }],
    };
    let burst = run_serve_scenario(&cfg, &wl, ModelBackend::new(64, 2, 6));
    let calm = run_serve_scenario(
        &cfg,
        &Workload { faults: Vec::new(), ..wl },
        ModelBackend::new(64, 2, 6),
    );

    assert_eq!(
        (burst.arrivals, burst.completed, burst.shed, burst.retries),
        (35_382, 2_139, 33_243, 30_278),
        "burst outcome drifted"
    );
    assert_eq!(
        (calm.arrivals, calm.completed, calm.shed, calm.retries),
        (1_669, 1_623, 46, 46),
        "calm twin drifted"
    );
    assert_eq!(burst.queue_peak, 48, "queue must saturate exactly at high water");
    assert_eq!(calm.queue_peak, 48);
    assert_eq!(burst.latency.p99_us, 6_000, "burst-window queueing p99 drifted");
    assert_eq!(calm.latency.p99_us, 3_000);
    assert_eq!(burst.fingerprint, 0x89189e60f3496c93, "burst response set drifted");
    assert_eq!(calm.fingerprint, 0x742729e41d3d65e3);
}

#[test]
fn serve_shard_stall_mid_overload_replays_exactly() {
    // 110k rps offered against 4×2 workers is already past saturation;
    // at t=15 ms shard 1 freezes for 12 ms, cutting capacity by a
    // quarter. The stalled run sheds ~75% more than its twin, and the
    // worst-case latency carries the full stall window (an in-flight
    // request frozen on the dead shard plus queueing), versus ~4.3 ms
    // without the fault.
    let cfg = ServeConfig {
        shards: 4,
        workers_per_shard: 2,
        queue_cap: 128,
        high_water: 96,
        retry_after_us: 2000,
        ..ServeConfig::default()
    };
    let wl = Workload {
        seed: 2002,
        arrivals: Arrivals::Open { rate_rps: 110_000.0, retry_shed: true },
        horizon_us: 50_000,
        report_permille: 250,
        faults: vec![ServeFault::ShardStall { shard: 1, at_us: 15_000, dur_us: 12_000 }],
    };
    let stalled = run_serve_scenario(&cfg, &wl, ModelBackend::new(96, 3, 6));
    let calm = run_serve_scenario(&cfg, &wl.stall_free(), ModelBackend::new(96, 3, 6));

    assert_eq!(
        (stalled.arrivals, stalled.completed, stalled.shed),
        (16_112, 5_016, 11_096),
        "stalled outcome drifted"
    );
    assert_eq!(
        (calm.arrivals, calm.completed, calm.shed),
        (11_691, 5_334, 6_357),
        "calm twin drifted"
    );
    assert_eq!(stalled.latency.max_us, 16_062, "stall window must dominate worst-case latency");
    assert_eq!(calm.latency.max_us, 4_259);
    assert_eq!(stalled.queue_peak, 96);
    assert_eq!(stalled.fingerprint, 0xe355d4693c3ac914, "stalled response set drifted");
    assert_eq!(calm.fingerprint, 0x845e51372a844284);
}

#[test]
fn serve_cache_storm_mid_load_rewarm_cost_replays_exactly() {
    // 32 closed-loop clients against a warm cache; at t=30 ms a
    // dist-rebuild invalidates every kickstart skeleton. The four
    // appliance roots re-warm at miss cost (16 misses vs 12 — the
    // initial warmup plus one per root), p99 rises 400→1000 µs from the
    // re-warm stalls, and the closed loop issues fewer requests because
    // its clients wait on the slower responses.
    let cfg = ServeConfig { shards: 2, workers_per_shard: 4, ..ServeConfig::default() };
    let wl = Workload {
        seed: 3003,
        arrivals: Arrivals::Closed { clients: 32, think_us: 200 },
        horizon_us: 60_000,
        report_permille: 300,
        faults: vec![ServeFault::CacheStorm { at_us: 30_000 }],
    };
    let storm = run_serve_scenario(&cfg, &wl, ModelBackend::new(48, 4, 8));
    let calm = run_serve_scenario(
        &cfg,
        &Workload { faults: Vec::new(), ..wl },
        ModelBackend::new(48, 4, 8),
    );

    assert_eq!(
        (storm.arrivals, storm.completed, storm.backend_misses),
        (5_792, 5_792, 16),
        "storm outcome drifted"
    );
    assert_eq!(
        (calm.arrivals, calm.completed, calm.backend_misses),
        (5_913, 5_913, 12),
        "calm twin drifted"
    );
    assert_eq!(storm.shed, 0, "a warm-cache closed loop never sheds");
    assert_eq!(storm.latency.p99_us, 1_000, "re-warm stall p99 drifted");
    assert_eq!(calm.latency.p99_us, 400);
    assert_eq!(storm.fingerprint, 0xbb4a3246f43ade16, "storm response set drifted");
    assert_eq!(calm.fingerprint, 0xe6f3a58cbe13449c);
}

#[test]
fn rollout_pinned_seeds_replay_exactly() {
    for &(seed, nodes, capacity, makespan_ms, max_conc, stragglers, jobs_started) in ROLLOUT_CORPUS
    {
        let plan = rocks::pbs::RolloutPlan::generate(seed);
        assert_eq!(plan.n_nodes, nodes, "seed {seed}: topology drifted");
        assert_eq!(plan.capacity, capacity, "seed {seed}: capacity drifted");
        let record = plan.run();
        assert!(record.violations.is_empty(), "seed {seed}: {:#?}", record.violations);
        let report = record.report.expect("clean run");
        assert_eq!(
            (report.makespan_seconds * 1000.0).round() as u64,
            makespan_ms,
            "seed {seed}: makespan drifted"
        );
        assert_eq!(report.max_concurrent_installs, max_conc, "seed {seed}: concurrency drifted");
        assert_eq!(report.straggler_failovers, stragglers, "seed {seed}: stragglers drifted");
        assert_eq!(report.jobs_started_during, jobs_started, "seed {seed}: admissions drifted");
        assert_eq!(report.reinstalled.len(), nodes, "seed {seed}: node coverage drifted");
    }
}
