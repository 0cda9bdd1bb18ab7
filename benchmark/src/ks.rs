//! `ks-warm` and `ks-churn`: the kickstart path of a mass reinstall.
//!
//! Both share one fixture — compute nodes plus the frontend in a memory
//! `ClusterDb`, addressed the way insert-ethers would have addressed
//! them, behind a warm `GenerationService`. `ks-warm` drives it through
//! the serving frontend and never writes, so every request finds a warm
//! skeleton. `ks-churn` bypasses the frontend and integrates a new node
//! between blocks of requests, so every block starts on a cold skeleton
//! and cold lazy indexes.

use crate::estimator::{median, percentile_of, Better, Lane};
use crate::run::{Check, Layers, Outcome, Run};
use crate::trace::{durations, median_duration, Recorder};
use crate::util::{fnv64, load_threads, mac, nproc, ns_since, timed, Rng, PER_RACK};
use rocks_db::insert_ethers::{register_frontend, DhcpRequest, InsertEthers};
use rocks_db::{reports, ClusterDb, Ipv4, KickstartTarget, NodeRecord};
use rocks_kickstart::{profiles, GenerationService, KickstartGenerator};
use rocks_rpm::Arch;
use rocks_serve::{
    run_serve, Arrivals, BackendResult, CostModel, ModelBackend, RealBackend, ServeBackend,
    ServeConfig, Workload,
};
use rocks_trace::Tracer;
use std::time::Instant;

const ARCH: Arch = Arch::I686;

/// Compute nodes in the full fixture.
const NODES: usize = 1024;
/// The cabinet `ks-churn` integrates new nodes into; the fixture's
/// cabinets stop far below it.
const CHURN_RACK: i64 = 999;

/// The frontend's virtual-time prices. Owned by the benchmark: with a
/// closed loop the number of requests in an episode is
/// `workers * horizon / ks_hit_us`, so a change to the crate's defaults
/// must not change how much work an episode is.
const COSTS: CostModel =
    CostModel { ks_hit_us: 60, ks_miss_us: 2_500, report_hit_us: 120, report_plan_us: 900 };
/// Virtual length of one episode: 8 workers * 15 ms / 60 µs = 2,000
/// requests, which leaves 20 samples beyond the 99th percentile and
/// keeps a round near 40 ms (see the README on why rounds are short).
const EPISODE_HORIZON_US: u64 = 15_000;

/// Every n-th kickstart body is compared with the cold generator's.
const CHECK_EVERY: usize = 64;

/// `ks-churn`: new nodes integrated per round, and requests after each.
const CHURN_WRITES: usize = 16;
const CHURN_BLOCK: usize = 256;

const STREAM_FIXTURE: u64 = 0x6b73_0001;
const STREAM_KEYS: u64 = 0x6b73_0002;

pub struct Fixture {
    pub db: ClusterDb,
    pub svc: GenerationService,
    pub targets: Vec<KickstartTarget>,
}

fn service() -> GenerationService {
    GenerationService::new(KickstartGenerator::new(
        profiles::default_profiles(),
        "10.1.1.1",
        "install/rocks-dist",
    ))
}

fn request(fx: &Fixture, db: &ClusterDb, ip: &str) -> String {
    fx.svc.generate_for_request(db, ip, ARCH).expect("a registered node has a kickstart").render()
}

fn cold_body(fx: &Fixture, db: &ClusterDb, ip: &str) -> String {
    let generator = fx.svc.generator();
    generator.generate_for_request(db, ip, ARCH).expect("cold generation").render()
}

/// Set-up: the database, the service, the resolved targets and one
/// request per appliance so that every skeleton is cached.
pub fn build(run: &Run) -> Fixture {
    let mut rng = Rng::new(run.seed, STREAM_FIXTURE);
    let mut db = ClusterDb::new();
    register_frontend(&mut db, &mac(&mut rng, 0), "frontend-0").expect("frontend row");
    let mut ip = Ipv4::ALLOC_TOP;
    for i in 0..run.size(NODES, 16) {
        let (rack, rank) = ((i / PER_RACK) as i64, (i % PER_RACK) as i64);
        db.add_node(&NodeRecord {
            id: i as i64 + 2,
            mac: mac(&mut rng, i + 1),
            name: format!("compute-{rack}-{rank}"),
            membership: 2,
            rack,
            rank,
            ip,
            comment: Some("Compute node".into()),
        })
        .expect("compute row");
        ip = ip.prev();
    }
    let targets = db.kickstart_targets().expect("targets resolve");
    let fx = Fixture { db, svc: service(), targets };
    let mut roots: Vec<&str> = Vec::new();
    for t in &fx.targets {
        if !roots.contains(&t.root.as_str()) {
            roots.push(&t.root);
            request(&fx, &fx.db, &t.ip);
        }
    }
    fx
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        shards: 2,
        workers_per_shard: 4,
        queue_cap: 1024,
        high_water: 1024,
        retry_after_us: 2_000,
        report_every: 8,
        keep_bodies: false,
        costs: COSTS,
    }
}

fn serve_workload(run: &Run) -> Workload {
    Workload {
        seed: run.seed,
        arrivals: Arrivals::Closed { clients: 32, think_us: 0 },
        horizon_us: (EPISODE_HORIZON_US / run.size_div as u64).max(600),
        report_permille: 0,
        faults: Vec::new(),
    }
}

/// `RealBackend` with a clock around each `install` call.
struct TimedBackend<'a> {
    inner: RealBackend<'a>,
    rec: &'a Recorder,
    install_ns: Vec<f64>,
    next_request: u64,
}

impl ServeBackend for TimedBackend<'_> {
    fn install(&mut self, key: usize) -> BackendResult {
        let request = self.next_request;
        self.next_request += 1;
        let inner = &mut self.inner;
        let t = Instant::now();
        let out = self.rec.span("serve.backend.install", request, || inner.install(key));
        self.install_ns.push(ns_since(t));
        out
    }

    fn report(&mut self, key: usize) -> BackendResult {
        self.inner.report(key)
    }

    fn invalidate(&mut self) {
        self.inner.invalidate();
    }

    fn n_targets(&self) -> usize {
        self.inner.n_targets()
    }

    fn n_queries(&self) -> usize {
        self.inner.n_queries()
    }
}

/// One serving episode to full drain. Returns requests completed and
/// wall nanoseconds, and leaves the per-install latencies in `backend`.
fn episode(
    fx: &Fixture,
    run: &Run,
    backend: &mut TimedBackend,
    index: usize,
    check: &mut Check,
) -> (u64, f64) {
    backend.install_ns.clear();
    let (cfg, wl) = (serve_config(), serve_workload(run));
    let rec = backend.rec;
    let ((report, logs), wall_ns) = timed(|| {
        rec.span("serve.run_serve", index as u64, || {
            run_serve(&cfg, &wl, backend, &Tracer::disabled())
        })
    });
    // A shed, an undelivered request or a broken frontend invariant is a
    // failed operation.
    let lost = report.arrivals - report.completed;
    check.ops(report.arrivals, lost + report.violations.len() as u64, || {
        format!("episode {index}: {lost} of {} lost, {:?}", report.arrivals, report.violations)
    });
    for log in logs.iter().filter(|l| l.install).step_by(CHECK_EVERY) {
        let target = &fx.targets[log.key % fx.targets.len()];
        let cold = fnv64(cold_body(fx, &fx.db, &target.ip).as_bytes());
        check.op(log.body_fnv == cold, || format!("{}: body differs from cold", target.name));
    }
    (report.completed, wall_ns)
}

/// `ks-warm`: serving episodes, mass generation and service restarts,
/// interleaved over the window.
pub fn warm(fx: &Fixture, run: &Run, rec: &Recorder) -> Outcome {
    let mut out = Outcome::default();
    let threads = load_threads();
    let mut backend = TimedBackend {
        inner: RealBackend::new(&fx.svc, &fx.db, ARCH).expect("targets resolve"),
        rec,
        install_ns: Vec::new(),
        next_request: 0,
    };
    let (mut rps, mut p50, mut latencies_ns) = (Vec::new(), Vec::new(), Vec::new());
    let (mut massgen_ms, mut restart_ms) = (Vec::new(), Vec::new());
    let mut per_episode = None;
    let lanes = [Lane::new(0.6, 100, 400), Lane::new(0.25, 40, 400), Lane::new(0.15, 20, 400)];
    out.floor_rss_mb = run.interleave(&lanes, |lane, i| match lane {
        0 => {
            let (completed, wall_ns) = episode(fx, run, &mut backend, i, &mut out.check);
            // Identical work by construction: same seed, same cache state.
            let expected = *per_episode.get_or_insert(completed);
            out.check.op(completed == expected, || {
                format!("episode {i} served {completed} requests, the first served {expected}")
            });
            rps.push(completed as f64 / (wall_ns / 1e9));
            p50.push(percentile_of(&mut backend.install_ns, 0.50) / 1e3);
            latencies_ns.push(std::mem::take(&mut backend.install_ns));
        }
        1 => {
            let (profiles, ns) = timed(|| {
                rec.span("kickstart.service.generate_all", i as u64, || {
                    fx.svc.generate_all(&fx.db, ARCH, threads).expect("mass generation")
                })
            });
            massgen_ms.push(ns / 1e6);
            let n = profiles.len();
            out.check.op(n == fx.targets.len(), || format!("generate_all gave {n} profiles"));
            for p in profiles.iter().step_by(CHECK_EVERY) {
                let ok = p.kickstart.render() == cold_body(fx, &fx.db, &p.ip);
                out.check.op(ok, || format!("{}: mass profile differs from cold", p.node));
            }
        }
        _ => {
            // The generation service restarted: profiles parsed again,
            // every skeleton rebuilt, every node's profile generated.
            let (n, ns) = timed(|| {
                rec.span("kickstart.service.restart", i as u64, || {
                    service().generate_all(&fx.db, ARCH, threads).expect("mass generation").len()
                })
            });
            out.check.op(n == fx.targets.len(), || format!("restart gave {n} profiles"));
            restart_ms.push(ns / 1e6);
        }
    });
    out.put("ops_per_s", &rps, Better::Higher);
    out.put("op_p50_us", &p50, Better::Lower);
    out.put_tail_us("op_tail_us", &mut latencies_ns, 0.99);
    out.put("bulk_ms", &massgen_ms, Better::Lower);
    out.put("restart_ms", &restart_ms, Better::Lower);
    out
}

/// What one `ks-churn` round is made of; the same for every round.
struct ChurnInputs {
    /// MACs of the nodes integrated in a round.
    macs: Vec<String>,
    /// Target indices requested after each integration.
    blocks: Vec<Vec<usize>>,
}

fn churn_inputs(fx: &Fixture, run: &Run) -> ChurnInputs {
    let mut rng = Rng::new(run.seed, STREAM_KEYS);
    let writes = run.size(CHURN_WRITES, 2);
    let block = run.size(CHURN_BLOCK, 8);
    ChurnInputs {
        macs: (0..writes).map(|i| mac(&mut rng, 0x80_0000 + i)).collect(),
        blocks: (0..writes)
            .map(|_| (0..block).map(|_| rng.below(fx.targets.len())).collect())
            .collect(),
    }
}

fn observe(db: &mut ClusterDb, mac: &str) -> bool {
    let request = DhcpRequest { mac: mac.to_string() };
    InsertEthers::start(db, "Compute", CHURN_RACK)
        .and_then(|mut session| session.observe(&request))
        .is_ok_and(|integrated| integrated.is_some())
}

struct ChurnRound {
    /// Kickstarts per second of each write-and-block stretch.
    block_rps: Vec<f64>,
    request_ns: Vec<f64>,
    /// The request right after each write: its skeleton is stale and the
    /// lazy indexes are cold.
    first_ns: Vec<f64>,
    observe_ns: Vec<f64>,
}

/// One round on a fresh copy of the fixture database: a distribution
/// rebuild, then writes each followed by a block of requests. Output
/// checks run between the timed calls and are not part of the wall.
fn churn_round(
    fx: &Fixture,
    inputs: &ChurnInputs,
    round: usize,
    rec: &Recorder,
    check: &mut Check,
) -> ChurnRound {
    let mut db = rec.span("db.clone", round as u64, || fx.db.clone());
    fx.svc.notify_dist_rebuilt();
    let mut r = ChurnRound {
        block_rps: Vec::new(),
        request_ns: Vec::new(),
        first_ns: Vec::new(),
        observe_ns: Vec::new(),
    };
    let mut served = 0usize;
    for (mac, block) in inputs.macs.iter().zip(&inputs.blocks) {
        let (integrated, ns) =
            timed(|| rec.span("db.insert_ethers.observe", round as u64, || observe(&mut db, mac)));
        check.op(integrated, || format!("round {round}: {mac} was not integrated"));
        r.observe_ns.push(ns);
        let mut stretch_ns = ns;
        for (nth, &key) in block.iter().enumerate() {
            let ip = &fx.targets[key].ip;
            let (body, ns) =
                timed(|| rec.span("kickstart.request", served as u64, || request(fx, &db, ip)));
            r.request_ns.push(ns);
            if nth == 0 {
                r.first_ns.push(ns);
            }
            stretch_ns += ns;
            let ok = !served.is_multiple_of(CHECK_EVERY) || body == cold_body(fx, &db, ip);
            check.op(ok, || format!("round {round}: {ip} body differs from cold"));
            served += 1;
        }
        r.block_rps.push(block.len() as f64 / (stretch_ns / 1e9));
    }
    r
}

/// `ks-churn`: write-and-request rounds, and restarts on a detached copy
/// of the database, interleaved over the window.
pub fn churn(fx: &Fixture, run: &Run, rec: &Recorder) -> Outcome {
    let mut out = Outcome::default();
    let inputs = churn_inputs(fx, run);
    let (mut rps, mut p50, mut miss_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut integrate, mut restart_ms) = (Vec::new(), Vec::new());
    let lanes = [Lane::new(0.85, 20, 400), Lane::new(0.15, 10, 400)];
    out.floor_rss_mb = run.interleave(&lanes, |lane, i| match lane {
        0 => {
            let mut r = churn_round(fx, &inputs, i, rec, &mut out.check);
            rps.append(&mut r.block_rps);
            p50.push(percentile_of(&mut r.request_ns, 0.50) / 1e3);
            integrate.push(median(&mut r.observe_ns) / 1e6);
            miss_us.push(median(&mut r.first_ns) / 1e3);
        }
        _ => {
            // Cold plan cache and skeletons, then the first block of
            // requests.
            let ((), ns) = timed(|| {
                rec.span("kickstart.service.restart", i as u64, || {
                    let cold = Fixture { db: fx.db.clone(), svc: service(), targets: Vec::new() };
                    for &key in &inputs.blocks[0] {
                        std::hint::black_box(request(&cold, &cold.db, &fx.targets[key].ip));
                    }
                })
            });
            restart_ms.push(ns / 1e6);
        }
    });
    out.put("ops_per_s", &rps, Better::Higher);
    out.put("op_p50_us", &p50, Better::Lower);
    // The slow class of this workload is the request after a write, 16 in
    // a round of 4,096: the 99th percentile falls short of it and lands
    // on the host's jitter (see the README), so the class is taken whole.
    out.put("op_tail_us", &miss_us, Better::Lower);
    out.put("bulk_ms", &integrate, Better::Lower);
    out.put("restart_ms", &restart_ms, Better::Lower);
    out
}

/// Per-layer metrics of the kickstart path, each from spans around
/// direct calls into the layer.
pub fn layers(fx: &Fixture, run: &Run, rec: &Recorder, check: &mut Check, out: &mut Layers) {
    // Parallel efficiency is about all processors, whatever the
    // end-to-end runs leave free.
    let threads = nproc();
    let mark = rec.len();
    let generator = fx.svc.generator();

    // The frontend alone: the same episode over a backend that does no
    // work. Host nanoseconds per request of admission, queueing and
    // dispatch.
    let (cfg, wl) = (serve_config(), serve_workload(run));
    let real = RealBackend::new(&fx.svc, &fx.db, ARCH).expect("targets resolve");
    let mut frontend_ns = Vec::new();
    for i in 0..3 {
        let mut model = ModelBackend::with_roots(real.target_roots(), real.n_queries());
        let ((report, _), ns) = timed(|| {
            rec.span("serve.run_serve.model", i, || {
                run_serve(&cfg, &wl, &mut model, &Tracer::disabled())
            })
        });
        frontend_ns.push(ns / report.completed.max(1) as f64);
    }
    out.insert("serve.frontend.ns_per_req", frontend_ns.into_iter().fold(f64::MAX, f64::min));

    // One real episode; `TimedBackend` records a span per install.
    let mut backend = TimedBackend { inner: real, rec, install_ns: Vec::new(), next_request: 0 };
    episode(fx, run, &mut backend, 0, check);
    drop(backend);

    // One request taken apart. Resolve runs inside generate, so it is
    // replayed alone on the same key and subtracted below.
    let mut rng = Rng::new(run.seed, STREAM_KEYS + 1);
    let mut body_bytes = 0usize;
    let keys = run.size(2048, 64);
    for i in 0..keys {
        let ip = &fx.targets[rng.below(fx.targets.len())].ip;
        rec.span("kickstart.request", i as u64, || {
            let _ = rec.span("db.node_by_ip", i as u64, || fx.db.node_by_ip(ip));
            let _ =
                rec.span("kickstart.resolve", i as u64, || generator.resolve_request(&fx.db, ip));
            let ks = rec
                .span("kickstart.service.generate", i as u64, || {
                    fx.svc.generate_for_request(&fx.db, ip, ARCH)
                })
                .expect("a registered node has a kickstart");
            body_bytes += rec.span("kickstart.render", i as u64, || ks.render()).len();
        });
    }
    out.insert("kickstart.body_bytes", body_bytes as f64 / keys as f64);

    // A miss: the first request after a distribution rebuild.
    let compute_ip = &fx.targets.last().expect("the fixture has nodes").ip;
    for i in 0..32 {
        fx.svc.notify_dist_rebuilt();
        let _ = rec.span("kickstart.service.generate.miss", i, || {
            fx.svc.generate_for_request(&fx.db, compute_ip, ARCH)
        });
        let _ = rec.span("kickstart.generator.skeleton", i, || {
            generator.generate_for_appliance("compute", ARCH)
        });
    }

    for i in 0..8 {
        let _ = rec
            .span("kickstart.service.generate_all.t1", i, || fx.svc.generate_all(&fx.db, ARCH, 1));
        let _ = rec.span("kickstart.service.generate_all.tn", i, || {
            fx.svc.generate_all(&fx.db, ARCH, threads)
        });
        let _ = rec.span("db.kickstart_targets", i, || fx.db.kickstart_targets());
    }

    // The node listing every report page renders.
    let listing = fx.db.sql_ref().query_ref("select name, ip from nodes").expect("node listing");
    for i in 0..8 {
        rec.span("sql.render_ascii", i, || std::hint::black_box(listing.render_ascii()));
    }

    // Writes, on a detached copy.
    let mut rng = Rng::new(run.seed, STREAM_KEYS + 2);
    let mut copy = fx.db.clone();
    for i in 0..8u64 {
        let mut scratch = rec.span("db.clone", i, || fx.db.clone());
        let mac = mac(&mut rng, 0x90_0000 + i as usize);
        rec.span("db.insert_ethers.observe", i, || observe(&mut copy, &mac));
        let _ = rec.span("db.first_lookup_after_write", i, || copy.node_by_ip(compute_ip));
        let _ = rec.span("db.reports.generate_all", i, || reports::generate_all(&mut scratch));
    }

    // Cache behaviour of one churn round, from the service's own counts.
    fx.svc.stats().reset();
    churn_round(fx, &churn_inputs(fx, run), 0, &Recorder::disabled(), check);
    let stats = fx.svc.stats();
    out.insert("kickstart.service.hit_ratio", stats.hits() as f64 / stats.requests().max(1) as f64);
    out.insert("kickstart.service.invalidations", stats.invalidations() as f64);

    let spans = rec.spans_from(mark);
    let med = |name: &str| median_duration(&spans, name);
    let least = |name: &str| durations(&spans, name).into_iter().fold(f64::MAX, f64::min);
    out.insert("serve.backend.install_ns", med("serve.backend.install"));
    out.insert("db.node_by_ip_ns", med("db.node_by_ip"));
    out.insert("kickstart.resolve_ns", med("kickstart.resolve"));
    out.insert(
        "kickstart.service.warm_ns",
        med("kickstart.service.generate") - med("kickstart.resolve"),
    );
    out.insert("kickstart.render_ns", med("kickstart.render"));
    out.insert("kickstart.service.miss_us", med("kickstart.service.generate.miss") / 1e3);
    out.insert("kickstart.generator.skeleton_us", med("kickstart.generator.skeleton") / 1e3);
    let (t1, tn) =
        (least("kickstart.service.generate_all.t1"), least("kickstart.service.generate_all.tn"));
    out.insert("kickstart.service.generate_all_t1_ms", t1 / 1e6);
    out.insert("kickstart.service.parallel_efficiency", t1 / (threads as f64 * tn));
    out.insert("db.kickstart_targets_ms", med("db.kickstart_targets") / 1e6);
    out.insert("sql.render_ascii_us", med("sql.render_ascii") / 1e3);
    out.insert("db.clone_ms", med("db.clone") / 1e6);
    out.insert("db.insert_ethers.observe_ms", med("db.insert_ethers.observe") / 1e6);
    out.insert("db.first_lookup_after_write_us", med("db.first_lookup_after_write") / 1e3);
    out.insert("db.reports.generate_all_ms", med("db.reports.generate_all") / 1e6);
}
