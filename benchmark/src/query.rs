//! `admin-query`: the `--query=` contract against a large node table.
//!
//! Read-only use of the SQL layer that `db-ingest` writes through.
//! Statements come from a pool that fits the 512-entry plan cache, plus
//! a share of never-seen literals that cannot be cached. Point and rack
//! lookups take the index path and set the median; the `order by`, the
//! broad join and the `count(*)` take the scan, join and aggregate paths
//! and set throughput and the tail.

use crate::estimator::{percentile_of, Better, Lane};
use crate::run::{Check, Layers, Outcome, Run};
use crate::trace::{median_duration, Recorder};
use crate::util::{fnv64, node_name, node_values, timed, Rng, PER_RACK};
use rocks_db::ClusterDb;

/// Nodes at full size: 3,125 cabinets of 32, over 5 memberships.
const NODES: usize = 20_000;
/// Pooled statement texts; the plan cache holds 512.
const POOL: usize = 384;
/// Calls in one round.
const CALLS: usize = 1000;

/// The tail percentile. Of a round's 1,000 calls the 30 slowest are the
/// three scan classes, ten each, so the 99th percentile (the 990th call)
/// sits on the edge between two classes and flips between them from run
/// to run. The 985th call lies in the middle of a class.
const TAIL: f64 = 0.985;

const STREAM_ROWS: u64 = 0x6171_0001;
const STREAM_POOL: u64 = 0x6171_0002;
const STREAM_MIX: u64 = 0x6171_0003;

/// Statement classes and how many of every 100 calls each gets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Point,
    Rack,
    RackRank,
    JoinSelective,
    /// A point lookup whose text was never seen before.
    OneOff,
    OrderBy,
    JoinBroad,
    Count,
}

const MIX: [(Class, usize); 8] = [
    (Class::Point, 40),
    (Class::Rack, 25),
    (Class::RackRank, 15),
    (Class::JoinSelective, 12),
    (Class::OneOff, 5),
    (Class::OrderBy, 1),
    (Class::JoinBroad, 1),
    (Class::Count, 1),
];

impl Class {
    /// The span each call of this class is recorded under.
    fn span(self) -> &'static str {
        match self {
            Class::Point => "sql.exec.point",
            Class::Rack => "sql.exec.rack",
            Class::RackRank => "sql.exec.rack_rank",
            Class::JoinSelective => "sql.exec.join_selective",
            Class::OneOff => "sql.exec.point.unplanned",
            Class::OrderBy => "sql.exec.order_by",
            Class::JoinBroad => "sql.exec.join_broad",
            Class::Count => "sql.exec.count",
        }
    }

    fn is_scan(self) -> bool {
        matches!(self, Class::OrderBy | Class::JoinBroad | Class::Count)
    }
}

fn point_sql(node: usize) -> String {
    format!("select name from nodes where name = '{}'", node_name(node))
}

struct Pooled {
    class: Class,
    sql: String,
    /// Hash of the rows the statement returned at warm-up.
    rows_fnv: u64,
}

pub struct Fixture {
    pub db: ClusterDb,
    pool: Vec<Pooled>,
    /// One round: pool indices, or `None` where a one-off goes.
    sequence: Vec<Option<usize>>,
    /// Nodes not named by any pooled point lookup, for one-offs.
    spare: Vec<usize>,
    next_spare: usize,
}

fn rows_fnv(rows: &[String]) -> u64 {
    fnv64(rows.join("\n").as_bytes())
}

fn load(run: &Run) -> (ClusterDb, usize) {
    let nodes = run.size(NODES, 1024);
    let mut rng = Rng::new(run.seed, STREAM_ROWS);
    let mut db = ClusterDb::new();
    for i in 0..nodes {
        let values = node_values(&mut rng, i);
        db.execute_raw(&format!("insert into nodes values ({values})")).expect("load row");
    }
    (db, nodes)
}

/// The pooled statement texts, by seed: the four indexed classes share
/// the pool in proportion to their share of calls, the three scan
/// classes have one text each.
fn pool_texts(run: &Run, nodes: usize) -> (Vec<(Class, String)>, Vec<usize>) {
    let mut rng = Rng::new(run.seed, STREAM_POOL);
    let racks = nodes / PER_RACK;
    let indexed = POOL - 3;
    let weight: usize = MIX[..4].iter().map(|(_, w)| w).sum();
    let mut texts = Vec::with_capacity(POOL);
    let point_nodes = rng.distinct(nodes, indexed * MIX[0].1 / weight + 1);
    for &n in &point_nodes {
        texts.push((Class::Point, point_sql(n)));
    }
    for rack in rng.distinct(racks, (indexed * MIX[1].1 / weight).min(racks)) {
        texts.push((Class::Rack, format!("select name from nodes where rack = {rack}")));
    }
    for n in rng.distinct(nodes, indexed * MIX[2].1 / weight) {
        let (rack, rank) = (n / PER_RACK, n % PER_RACK);
        texts.push((
            Class::RackRank,
            format!("select name from nodes where rack = {rack} and rank = {rank}"),
        ));
    }
    for rack in rng.distinct(racks, (indexed - texts.len()).min(racks)) {
        texts.push((
            Class::JoinSelective,
            format!(
                "select nodes.name from nodes, memberships where nodes.membership = \
                 memberships.id and memberships.name = 'Compute' and nodes.rack = {rack}"
            ),
        ));
    }
    texts.push((Class::OrderBy, "select rack from nodes where rank = 0 order by rack".into()));
    texts.push((
        Class::JoinBroad,
        "select nodes.name from nodes, memberships where nodes.membership = memberships.id \
         and memberships.compute = 'yes'"
            .into(),
    ));
    texts.push((Class::Count, "select count(*) from nodes".into()));
    let pooled: std::collections::HashSet<usize> = point_nodes.into_iter().collect();
    let spare = (0..nodes).filter(|n| !pooled.contains(n)).collect();
    (texts, spare)
}

/// One round's calls: every hundred is the class mix in a seeded order,
/// each pooled call a seeded pick within its class.
fn sequence(run: &Run, pool: &[Pooled]) -> Vec<Option<usize>> {
    let mut rng = Rng::new(run.seed, STREAM_MIX);
    let members: Vec<Vec<usize>> = MIX
        .iter()
        .map(|&(class, _)| (0..pool.len()).filter(|&i| pool[i].class == class).collect())
        .collect();
    let mut out = Vec::with_capacity(CALLS);
    for _ in 0..run.size(CALLS, 100) / 100 {
        // Indices into `MIX`, each as often as its class is called.
        let mut hundred: Vec<usize> =
            MIX.iter().enumerate().flat_map(|(m, &(_, n))| std::iter::repeat_n(m, n)).collect();
        for i in (1..hundred.len()).rev() {
            hundred.swap(i, rng.below(i + 1));
        }
        for m in hundred {
            out.push((MIX[m].0 != Class::OneOff).then(|| members[m][rng.below(members[m].len())]));
        }
    }
    out
}

/// Set-up: load the table and run every pooled statement once, which
/// plans it and builds the lazy indexes it needs.
pub fn build(run: &Run) -> Fixture {
    let (db, nodes) = load(run);
    let (texts, spare) = pool_texts(run, nodes);
    let pool: Vec<Pooled> = texts
        .into_iter()
        .map(|(class, sql)| {
            let rows = db.query_names(&sql).expect("pooled statement runs");
            Pooled { class, rows_fnv: rows_fnv(&rows), sql }
        })
        .collect();
    let sequence = sequence(run, &pool);
    Fixture { db, pool, sequence, spare, next_spare: 0 }
}

/// Pooled statements' rows equal the naive scan's. Once, after set-up,
/// untimed. A scan of the full table costs 25 ms and a scanned join
/// 275 ms, so only a seeded sample of each class is scanned: the first
/// few of its statements, which were drawn in seeded order. Every timed
/// call is still compared with its statement's warm-up rows.
pub fn verify_pool(fx: &Fixture, check: &mut Check) {
    for (class, _) in MIX {
        let sample = if class == Class::JoinSelective { 2 } else { 8 };
        for p in fx.pool.iter().filter(|p| p.class == class).take(sample) {
            let scan = fx.db.sql_ref().query_ref_scan(&p.sql).map(|r| {
                r.rows.iter().filter_map(|row| row.first()).map(|v| v.render()).collect::<Vec<_>>()
            });
            let ok = scan.as_ref().is_ok_and(|rows| rows_fnv(rows) == p.rows_fnv);
            check.op(ok, || format!("planned rows differ from the scan's: {}", p.sql));
        }
    }
}

struct Round {
    call_ns: Vec<f64>,
    /// Per hundred calls, each of which holds the whole class mix:
    /// calls per second, and mean milliseconds of its scan-class calls.
    hundred_qps: Vec<f64>,
    hundred_scan_ms: Vec<f64>,
}

fn round(fx: &mut Fixture, index: usize, rec: &Recorder, check: &mut Check) -> Round {
    let mut r = Round { call_ns: Vec::new(), hundred_qps: Vec::new(), hundred_scan_ms: Vec::new() };
    let (mut wall_ns, mut scan_ns, mut scans) = (0.0, 0.0, 0usize);
    for i in 0..fx.sequence.len() {
        let id = (index * CALLS + i) as u64;
        let one_off;
        let (class, sql, expected) = match fx.sequence[i] {
            Some(p) => (fx.pool[p].class, fx.pool[p].sql.as_str(), fx.pool[p].rows_fnv),
            None => {
                // A fresh name every time, from the nodes no pooled
                // statement names; around again only after all of them.
                let node = fx.spare[fx.next_spare % fx.spare.len()];
                fx.next_spare += 1;
                one_off = point_sql(node);
                (Class::OneOff, one_off.as_str(), fnv64(node_name(node).as_bytes()))
            }
        };
        let db = &fx.db;
        let (rows, ns) = timed(|| rec.span(class.span(), id, || db.query_names(sql)));
        r.call_ns.push(ns);
        wall_ns += ns;
        if class.is_scan() {
            scan_ns += ns;
            scans += 1;
        }
        let ok = rows.as_ref().is_ok_and(|rows| rows_fnv(rows) == expected);
        check.op(ok, || format!("wrong rows: {sql}"));
        if (i + 1) % 100 == 0 {
            r.hundred_qps.push(100.0 / (wall_ns / 1e9));
            r.hundred_scan_ms.push(scan_ns / 1e6 / scans.max(1) as f64);
            (wall_ns, scan_ns, scans) = (0.0, 0.0, 0);
        }
    }
    r
}

/// `admin-query`: rounds of the statement mix, and restarts of the query
/// service on a detached copy, interleaved over the window.
pub fn run(fx: &mut Fixture, run: &Run, rec: &Recorder) -> Outcome {
    let mut out = Outcome::default();
    let (mut qps, mut p50, mut latencies_ns) = (Vec::new(), Vec::new(), Vec::new());
    let (mut scan_ms, mut restart_ms) = (Vec::new(), Vec::new());
    let lanes = [Lane::new(0.85, 30, 300), Lane::new(0.15, 20, 300)];
    out.floor_rss_mb = run.interleave(&lanes, |lane, i| match lane {
        0 => {
            let mut r = round(fx, i, rec, &mut out.check);
            qps.append(&mut r.hundred_qps);
            scan_ms.append(&mut r.hundred_scan_ms);
            p50.push(percentile_of(&mut r.call_ns, 0.50) / 1e3);
            latencies_ns.push(r.call_ns);
        }
        _ => {
            // Cold plan cache, then one pass over the pool.
            let (answered, ns) = timed(|| {
                rec.span("db.restart", i as u64, || {
                    let cold = fx.db.clone();
                    fx.pool.iter().filter(|p| cold.query_names(&p.sql).is_ok()).count()
                })
            });
            out.check.op(answered == fx.pool.len(), || format!("restart answered {answered}"));
            restart_ms.push(ns / 1e6);
        }
    });
    out.put("ops_per_s", &qps, Better::Higher);
    out.put("op_p50_us", &p50, Better::Lower);
    out.put_tail_us("op_tail_us", &mut latencies_ns, TAIL);
    out.put("bulk_ms", &scan_ms, Better::Lower);
    out.put("restart_ms", &restart_ms, Better::Lower);
    out
}

/// Per-layer metrics of the SQL read path: `Database::query_ref` per
/// statement class, and the planner's and executor's own counts over
/// one round.
pub fn layers(fx: &mut Fixture, rec: &Recorder, check: &mut Check, out: &mut Layers) {
    let mark = rec.len();
    let sql = fx.db.sql_ref();
    for class in MIX.iter().map(|(c, _)| *c).filter(|c| *c != Class::OneOff) {
        let reps = if class.is_scan() { 5 } else { 1 };
        for (i, p) in fx.pool.iter().filter(|p| p.class == class).take(32).enumerate() {
            for _ in 0..reps {
                let _ = rec.span(class.span(), i as u64, || sql.query_ref(&p.sql));
            }
        }
    }
    // A never-seen literal pays parse and plan; the same text again does
    // not. The difference is the cost of planning.
    for i in 0..32 {
        let node = fx.spare[(fx.next_spare + i) % fx.spare.len()];
        let text = point_sql(node);
        let _ = rec.span("sql.exec.point.unplanned", i as u64, || sql.query_ref(&text));
        let _ = rec.span("sql.exec.point.replanned", i as u64, || sql.query_ref(&text));
    }
    fx.next_spare += 32;

    // The planner's and executor's own counts over one round, on a
    // detached copy whose plan cache holds the pool and nothing else:
    // whatever ran before, the counts repeat exactly.
    let copy = fx.db.clone();
    let live = std::mem::replace(&mut fx.db, copy);
    for p in &fx.pool {
        let _ = fx.db.query_names(&p.sql);
    }
    let stats = fx.db.sql_ref().stats();
    let before = (
        stats.plan_cache_hits(),
        stats.plan_cache_misses(),
        stats.rows_examined(),
        stats.rows_returned(),
    );
    fx.next_spare = 0;
    round(fx, 0, &Recorder::disabled(), check);
    let stats = fx.db.sql_ref().stats();
    let hits = (stats.plan_cache_hits() - before.0) as f64;
    let misses = (stats.plan_cache_misses() - before.1) as f64;
    out.insert("sql.plan_cache.hit_ratio", hits / (hits + misses).max(1.0));
    out.insert(
        "sql.exec.rows_examined_per_returned",
        (stats.rows_examined() - before.2) as f64
            / ((stats.rows_returned() - before.3) as f64).max(1.0),
    );
    fx.db = live;

    let spans = rec.spans_from(mark);
    let med = |name: &str| median_duration(&spans, name);
    out.insert("sql.exec.point_ns", med("sql.exec.point"));
    out.insert("sql.exec.rack_us", med("sql.exec.rack") / 1e3);
    out.insert("sql.exec.join_selective_us", med("sql.exec.join_selective") / 1e3);
    out.insert("sql.exec.order_by_ms", med("sql.exec.order_by") / 1e6);
    out.insert("sql.exec.join_broad_ms", med("sql.exec.join_broad") / 1e6);
    out.insert("sql.exec.count_ms", med("sql.exec.count") / 1e6);
    out.insert(
        "sql.plan.replan_ns",
        med("sql.exec.point.unplanned") - med("sql.exec.point.replanned"),
    );
}
