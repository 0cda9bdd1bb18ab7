//! Differential property tests for the query planner: every query the
//! planner accepts must return results **byte-identical** to the naive
//! scan path — same rows, same values, same order — and identical errors
//! when it cannot run. `Database::query_ref` (planned, cached) is diffed
//! against `Database::query_ref_scan` (forced full scan) over random
//! tables, random queries, and random interleaved mutations.
//!
//! Value domains are deliberately tiny and collision-heavy, and the text
//! column mixes integer-shaped spellings (`'5'`, `'05'`, `' 5'`) with
//! plain text and NULLs, to stress the Int↔Text coercion corners of
//! `Value::sql_cmp` that make a probe with integer-shaped text inexact:
//! its candidates are re-checked, every other probe's are not.

use proptest::prelude::*;
use rocks_sql::{Database, Value};

/// Rows: (id, name-ish tag, membership, rack, tricky text tag).
type NodeRow = (i64, String, i64, i64, &'static str);

fn tag_strategy() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("'5'"),
        Just("'05'"),
        Just("' 5'"),
        Just("'x'"),
        Just("'compute'"),
        Just("NULL"),
        Just("'6'"),
    ]
}

fn node_rows() -> impl Strategy<Value = Vec<NodeRow>> {
    proptest::collection::vec((0i64..12, "[a-z]{1,6}", 0i64..5, 0i64..3, tag_strategy()), 0..24)
}

fn membership_rows() -> impl Strategy<Value = Vec<(i64, String)>> {
    proptest::collection::vec((0i64..5, "[a-z]{1,6}"), 0..6)
}

/// Third table keyed by the same tricky text domain as `nodes.tag`, so
/// text equi-joins hit the Int↔Text coercion corners on *both* sides.
fn app_rows() -> impl Strategy<Value = Vec<(i64, &'static str)>> {
    proptest::collection::vec((0i64..8, tag_strategy()), 0..10)
}

fn build_db(
    nodes: &[NodeRow],
    memberships: &[(i64, String)],
    apps: &[(i64, &'static str)],
) -> Database {
    let mut db = Database::new();
    db.execute("create table nodes (id int, name text, membership int, rack int, tag text)")
        .unwrap();
    db.execute("create table memberships (id int, name text)").unwrap();
    db.execute("create table apps (aid int, tag text)").unwrap();
    for (id, name, membership, rack, tag) in nodes {
        db.execute(&format!(
            "insert into nodes values ({id}, '{}', {membership}, {rack}, {tag})",
            name.replace('\'', "''")
        ))
        .unwrap();
    }
    for (id, name) in memberships {
        db.execute(&format!(
            "insert into memberships values ({id}, '{}')",
            name.replace('\'', "''")
        ))
        .unwrap();
    }
    for (aid, tag) in apps {
        db.execute(&format!("insert into apps values ({aid}, {tag})")).unwrap();
    }
    db
}

/// A pool of query shapes covering: index point lookups (int and text
/// literals, hit and miss), residual conjuncts, OR filters, hash joins
/// with pushdown and extra equi keys, coercion pitfalls on `tag`,
/// LIKE/IN/IS NULL residuals, ORDER BY + LIMIT (top-k), aggregates, and
/// fallback cases (ambiguous columns resolve to errors on both paths).
fn query_strategy() -> impl Strategy<Value = String> {
    let lit = 0i64..12;
    prop_oneof![
        lit.clone().prop_map(|n| format!("select * from nodes where id = {n}")),
        lit.clone().prop_map(|n| format!("select name from nodes where id = {n} and rack > 0")),
        lit.clone()
            .prop_map(|n| format!("select name from nodes where id = {n} or membership = 2")),
        Just("select id from nodes where tag = '5'".to_string()),
        Just("select id from nodes where tag = '05'".to_string()),
        Just("select id from nodes where tag = ' 5'".to_string()),
        Just("select id from nodes where tag = 5".to_string()),
        Just("select id from nodes where id = '05'".to_string()),
        Just("select id from nodes where tag = 'x' and rack = 1".to_string()),
        Just("select id from nodes where tag is null".to_string()),
        Just("select id from nodes where tag in ('5', 'x') and id < 9".to_string()),
        Just("select id from nodes where name like 'a%' and membership = 1".to_string()),
        Just(
            "select nodes.name from nodes, memberships where \
             nodes.membership = memberships.id"
                .to_string()
        ),
        Just(
            "select nodes.name, memberships.name from nodes, memberships where \
             nodes.membership = memberships.id and memberships.name like 'b%'"
                .to_string()
        ),
        lit.clone().prop_map(|n| {
            format!(
                "select * from nodes, memberships where \
                 nodes.membership = memberships.id and nodes.id = {n}"
            )
        }),
        Just(
            "select nodes.id from nodes, memberships where \
             memberships.id = nodes.membership and nodes.id = memberships.id"
                .to_string()
        ),
        Just(
            "select nodes.id from nodes, memberships where \
             nodes.membership = memberships.id and nodes.rack < memberships.id"
                .to_string()
        ),
        // Cross join with only single-table filters (no equi key).
        Just(
            "select nodes.id, memberships.id from nodes, memberships where \
             nodes.rack = 1 and memberships.id > 1"
                .to_string()
        ),
        // Text equi-joins: histogram keys and index buckets group
        // '5'/'05'/' 5'/5 together, so a probe with integer-shaped text
        // must re-verify with sql_cmp.
        Just("select nodes.id, apps.aid from nodes, apps where nodes.tag = apps.tag".to_string()),
        Just(
            "select nodes.id from nodes, apps where \
             apps.tag = nodes.tag and apps.aid < 4 and nodes.rack = 1"
                .to_string()
        ),
        // Three-table joins: join-order enumeration (DP) with range
        // predicates that stay residual on the reordered pipeline.
        Just(
            "select nodes.name from nodes, memberships, apps where \
             nodes.membership = memberships.id and nodes.tag = apps.tag"
                .to_string()
        ),
        (0i64..8).prop_map(|n| {
            format!(
                "select nodes.id, apps.aid from nodes, memberships, apps where \
                 nodes.membership = memberships.id and nodes.tag = apps.tag \
                 and apps.aid = {n} and nodes.rack < 2"
            )
        }),
        Just(
            "select count(*) from nodes, memberships, apps where \
             nodes.membership = memberships.id and nodes.tag = apps.tag \
             and memberships.id < apps.aid"
                .to_string()
        ),
        // Range predicates over the planned row set.
        (0i64..12, 0i64..12).prop_map(|(lo, hi)| {
            format!("select id from nodes where id > {lo} and id < {hi} and rack >= 1")
        }),
        // Constant predicates.
        Just("select id from nodes where 1 = 1 and rack = 0".to_string()),
        Just("select id from nodes where 1 = 2".to_string()),
        // ORDER BY + LIMIT exercises the top-k path on both sides.
        (lit.clone(), 0usize..6).prop_map(|(n, k)| {
            format!("select id, name from nodes where membership = {n} order by id limit {k}")
        }),
        (0usize..6).prop_map(|k| {
            format!("select id, name, rack from nodes order by rack desc, id limit {k}")
        }),
        // Aggregates and grouping downstream of the planned row set.
        lit.clone().prop_map(|n| format!("select count(*) from nodes where membership = {n}")),
        Just("select rack, count(*) from nodes where membership = 2 group by rack".to_string()),
        Just(
            "select memberships.name, count(*), max(nodes.id) from nodes, memberships where \
             nodes.membership = memberships.id group by memberships.name"
                .to_string()
        ),
        (0usize..8).prop_map(|k| {
            format!(
                "select nodes.id, memberships.id, apps.aid from nodes, memberships, apps where \
                 nodes.membership = memberships.id and nodes.tag = apps.tag \
                 order by apps.aid desc, memberships.id, nodes.id limit {k}"
            )
        }),
        // Error cases: both paths must fail identically.
        Just("select id from nodes, memberships where name = 'x'".to_string()),
        Just("select id from nodes where ghost = 1".to_string()),
    ]
}

/// FROM lists past `DP_TABLE_LIMIT`: 7, 8, 12 and 32 tables are ordered
/// greedily, and 33 are refused (join-set masks are `u32`), so the
/// executor scans. Two shapes, each against the scan, rows or error: a
/// chain join written in reverse FROM order, with one pushed filter and
/// one residual, and a cross `count(*)`.
#[test]
fn greedy_join_orders_and_the_table_limit_match_the_scan() {
    for n in [7, 8, 12, 32, 33] {
        let mut db = Database::new();
        for t in 1..=n {
            db.execute(&format!("create table t{t} (k int, v int)")).unwrap();
            for k in 0..if n <= 8 { 3 } else { 1 } {
                db.execute(&format!("insert into t{t} values ({k}, {})", (k + t) % 3)).unwrap();
            }
        }
        let from: Vec<String> = (1..=n).rev().map(|t| format!("t{t}")).collect();
        let from = from.join(", ");
        let chain: Vec<String> = (2..=n).map(|t| format!("t{t}.k = t{}.k", t - 1)).collect();
        let chain = format!(
            "select t1.k, t{n}.v from {from} where {} and t1.k < 2 and t1.v <= t{n}.v",
            chain.join(" and ")
        );
        let cross = format!("select count(*) from {from} where t{n}.v < 2");
        for sql in [&chain, &cross] {
            assert_differential(&db, sql);
        }
        // Up to 32 tables the chain runs out of FROM order; at 33 EXPLAIN
        // prints the scan.
        let plan = db.query_column_ref(&format!("explain {chain}")).unwrap();
        assert_eq!(plan.iter().any(|l| l.contains("join order:")), n <= 32, "{plan:?}");
        if n == 33 {
            assert_eq!(plan[1], "  t33: scan", "{plan:?}");
            assert!(plan[2..34].iter().all(|l| l.ends_with(": nested loop, scan")), "{plan:?}");
            assert!(plan[34].ends_with("(evaluated on the cross product)"), "{plan:?}");
        }
    }
}

/// `nodes` of 240 rows and `apps` of 48 whose `tag` holds integer-shaped
/// text in several spellings (`'5'`, `'05'`, `' 5'`, `'6'`, `'06'`)
/// beside distinct names, so an equality on `tag` is selective enough
/// that the planner probes its index.
fn coercion_db() -> Database {
    let mut db = Database::new();
    db.execute("create table nodes (id int, tag text)").unwrap();
    db.execute("create table apps (aid int, tag text)").unwrap();
    let spellings = ["'5'", "'05'", "' 5'", "'6'", "'06'", "5", "NULL"];
    let nodes: Vec<String> = (0..240)
        .map(|i| match spellings.get(i % 12) {
            Some(tag) => format!("({i}, {tag})"),
            None => format!("({i}, 'n{i}')"),
        })
        .collect();
    db.execute(&format!("insert into nodes values {}", nodes.join(", "))).unwrap();
    let apps: Vec<String> = (0..48)
        .map(|i| match spellings.get(i % 8) {
            Some(tag) => format!("({i}, {tag})"),
            None => format!("({i}, 'a{i}')"),
        })
        .collect();
    db.execute(&format!("insert into apps values {}", apps.join(", "))).unwrap();
    db
}

/// The Int↔Text coercion corners at each of the three probe sites,
/// written out rather than drawn: an integer-shaped text literal (the
/// one inexact probe), an `Int` literal against integer-shaped text
/// cells, and a hash join keyed on integer-shaped text on both sides.
/// Planned reads equal the scan; `lookup_eq` equals the SQL read.
#[test]
fn coercion_corners_match_the_scan_at_every_probe_site() {
    let db = coercion_db();
    for literal in ["'5'", "'05'", "' 5'", "'6'", "5", "6", "'n19'", "7"] {
        let sql = format!("select id, tag from nodes where tag = {literal}");
        assert_differential(&db, &sql);
        let plan = db.query_column_ref(&format!("explain {sql}")).unwrap();
        assert!(plan[1].contains(&format!("index(tag = {literal})")), "{plan:?}");
    }
    let join = "select nodes.id, apps.aid from nodes, apps where nodes.tag = apps.tag";
    assert_differential(&db, join);
    assert_differential(&db, &format!("{join} and apps.aid < 20"));
    let plan = db.query_column_ref(&format!("explain {join}")).unwrap();
    assert!(plan.iter().any(|l| l.contains("hash join(")), "{plan:?}");
    let joined = db.query_ref(join).unwrap().rows.len();
    assert!(joined > 0, "the join meets equal spellings");

    for (value, literal) in [
        (Value::Text("5".into()), "'5'"),
        (Value::Text("05".into()), "'05'"),
        (Value::Text(" 5".into()), "' 5'"),
        (Value::Int(5), "5"),
        (Value::Int(6), "6"),
        (Value::Text("n19".into()), "'n19'"),
    ] {
        let direct = db.lookup_eq("nodes", "tag", &value).unwrap();
        let sql = format!("select * from nodes where tag = {literal}");
        for read in [db.query_ref(&sql).unwrap(), db.query_ref_scan(&sql).unwrap()] {
            assert_eq!(direct, read.rows.iter().map(Vec::as_slice).collect::<Vec<_>>(), "{sql}");
        }
    }
}

/// A random mutation to run between differential checks, exercising
/// incremental index maintenance (INSERT) and invalidation (UPDATE,
/// DELETE).
fn mutation_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        (0i64..12, 0i64..5, 0i64..3).prop_map(|(id, m, r)| {
            format!("insert into nodes values ({id}, 'new', {m}, {r}, '5')")
        }),
        (0i64..5, 0i64..5).prop_map(|(from, to)| format!(
            "update nodes set membership = {to} where \
                                            membership = {from}"
        )),
        (0i64..12).prop_map(|id| format!("delete from nodes where id = {id}")),
        (0i64..8, tag_strategy())
            .prop_map(|(aid, tag)| format!("insert into apps values ({aid}, {tag})")),
        (0i64..8).prop_map(|aid| format!("delete from apps where aid = {aid}")),
    ]
}

/// Assert planned (cached) and scan execution agree exactly — result or
/// error.
fn assert_differential(db: &Database, sql: &str) {
    match (db.query_ref(sql), db.query_ref_scan(sql)) {
        (Ok(planned), Ok(scanned)) => {
            assert_eq!(planned, scanned, "planned rows diverged for {sql}");
        }
        (Err(planned), Err(scanned)) => {
            assert_eq!(planned, scanned, "planned error diverged for {sql}");
        }
        (planned, scanned) => {
            panic!("one path failed for {sql}: planned={planned:?} scanned={scanned:?}");
        }
    }
}

proptest! {
    #[test]
    fn planned_equals_scan(
        nodes in node_rows(),
        memberships in membership_rows(),
        apps in app_rows(),
        queries in proptest::collection::vec(query_strategy(), 1..8),
    ) {
        let db = build_db(&nodes, &memberships, &apps);
        for sql in &queries {
            assert_differential(&db, sql);
        }
    }

    #[test]
    fn planned_equals_scan_across_mutations(
        nodes in node_rows(),
        memberships in membership_rows(),
        apps in app_rows(),
        queries in proptest::collection::vec(query_strategy(), 1..4),
        mutations in proptest::collection::vec(mutation_strategy(), 1..4),
    ) {
        let mut db = build_db(&nodes, &memberships, &apps);
        // Warm the indexes and plan cache, then interleave writes with
        // re-checks: stale index or plan state would diverge here.
        for sql in &queries {
            assert_differential(&db, sql);
        }
        for mutation in &mutations {
            db.execute(mutation).unwrap();
            for sql in &queries {
                assert_differential(&db, sql);
            }
        }
    }

    #[test]
    fn lookup_eq_equals_sql_select(
        nodes in node_rows(),
        memberships in membership_rows(),
        probe in 0i64..12,
    ) {
        let db = build_db(&nodes, &memberships, &[]);
        for (column, value, literal) in [
            ("id", rocks_sql::Value::Int(probe), probe.to_string()),
            ("tag", rocks_sql::Value::Text("5".into()), "'5'".to_string()),
        ] {
            let direct = db.lookup_eq("nodes", column, &value).unwrap();
            let sql = db.query_ref_scan(&format!("select * from nodes where {column} = {literal}"));
            let sql = sql.unwrap();
            prop_assert_eq!(direct, sql.rows.iter().map(Vec::as_slice).collect::<Vec<_>>());
        }
    }
}
