//! §6.4: the cluster database. The whole rebuild of the reports from the
//! rows (`generate_reports`) and the paper's multi-table join run against
//! clusters of increasing size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rocks_bench::{planner_database, planner_point_query, PLANNER_JOIN_QUERY};
use rocks_db::insert_ethers::{register_frontend, DhcpRequest, InsertEthers};
use rocks_db::{reports, ClusterDb};

fn cluster_db(n: usize) -> ClusterDb {
    let mut db = ClusterDb::new();
    register_frontend(&mut db, "00:30:c1:d8:ac:80", "frontend-0").unwrap();
    let mut session = InsertEthers::start(&mut db, "Compute", 0).unwrap();
    for i in 0..n {
        session
            .observe(&DhcpRequest { mac: format!("00:50:8b:{:02x}:{:02x}:01", i / 256, i % 256) })
            .unwrap();
    }
    db
}

fn bench_sql(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster_db");
    for &n in &[32usize, 128, 512] {
        let db = cluster_db(n);
        group.bench_with_input(BenchmarkId::new("compute_join", n), &n, |b, _| {
            b.iter(|| {
                db.query_names(
                    "select nodes.name from nodes,memberships where \
                     nodes.membership = memberships.id and memberships.name = 'Compute'",
                )
                .unwrap()
            })
        });
        // The whole rebuild from the rows (what `ClusterDb::reports`
        // does after a write other than an append), not a copy of
        // texts that are already current.
        group.bench_with_input(BenchmarkId::new("generate_reports", n), &n, |b, _| {
            b.iter(|| reports::build(&db).unwrap())
        });
    }
    group.finish();

    let mut db = cluster_db(64);
    c.bench_function("insert_ethers_one_node", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i += 1;
            let mut session = InsertEthers::start(&mut db, "Compute", 1).unwrap();
            session
                .observe(&DhcpRequest {
                    mac: format!(
                        "00:aa:{:02x}:{:02x}:{:02x}:02",
                        i >> 16,
                        (i >> 8) & 0xff,
                        i & 0xff
                    ),
                })
                .unwrap()
        })
    });
}

/// The PR-2 tentpole comparison: the planner's indexed point lookups and
/// hash joins against the forced full-scan path, on a 10k-node database.
/// `query_ref` is warmed first so the steady-state numbers reflect the
/// cached-plan fast path the generation service and insert-ethers hit.
fn bench_planner(c: &mut Criterion) {
    let rows = 10_000usize;
    let db = planner_database(rows);
    let point = planner_point_query(rows);
    db.query_ref(&point).unwrap();
    db.query_ref(PLANNER_JOIN_QUERY).unwrap();

    let mut group = c.benchmark_group("sql_planner");
    group.bench_with_input(BenchmarkId::new("point_scan", rows), &rows, |b, _| {
        b.iter(|| db.query_ref_scan(&point).unwrap())
    });
    group.bench_with_input(BenchmarkId::new("point_indexed", rows), &rows, |b, _| {
        b.iter(|| db.query_ref(&point).unwrap())
    });
    group.bench_with_input(BenchmarkId::new("join_scan", rows), &rows, |b, _| {
        b.iter(|| db.query_ref_scan(PLANNER_JOIN_QUERY).unwrap())
    });
    group.bench_with_input(BenchmarkId::new("join_indexed", rows), &rows, |b, _| {
        b.iter(|| db.query_ref(PLANNER_JOIN_QUERY).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_sql, bench_planner);
criterion_main!(benches);
