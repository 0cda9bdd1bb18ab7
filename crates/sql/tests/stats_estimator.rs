//! Estimator edge cases and plan-cache staleness: the corners where
//! cost-based planning could silently go wrong — empty tables, all-NULL
//! and single-value columns, Int↔Text coercion keys, tables that grow
//! 100x under a cached plan, and a crash landing mid-checkpoint while
//! statistics were warm — and what the planner saves, as the rows each
//! plan examines.

use rocks_sql::disk::{CrashPlan, DiskError, MemVfs};
use rocks_sql::durable::{DurableDatabase, DurableError};
use rocks_sql::{ColumnType, Database, ExecOutcome, QueryResult, Table, Value};

/// The plan text, through `execute`: the EXPLAIN stays out of the
/// statement cache, so it moves no plan-cache count.
fn explain_text(db: &mut Database, sql: &str) -> Vec<String> {
    let Ok(ExecOutcome::Rows(plan)) = db.execute(&format!("explain {sql}")) else {
        panic!("explain {sql} returned no rows")
    };
    plan.rows.iter().map(|row| row[0].render()).collect()
}

/// A cluster database shaped like the paper's schema: `rows` nodes
/// across four memberships (only `Compute` has `compute = 'yes'`), one
/// appliance per membership, unique MACs and IPs, and a skewed `arch`
/// (15/16 `x86_64`, 1/16 `ia64`) so one column carries a broad and a
/// selective predicate.
fn planner_database(rows: usize) -> Database {
    let col = |name: &str, ty: ColumnType| (name.to_string(), ty);
    let mut nodes = Table::new(
        "nodes",
        vec![
            col("id", ColumnType::Int),
            col("mac", ColumnType::Text),
            col("name", ColumnType::Text),
            col("membership", ColumnType::Int),
            col("rack", ColumnType::Int),
            col("rank", ColumnType::Int),
            col("ip", ColumnType::Text),
            col("arch", ColumnType::Text),
        ],
    );
    for i in 0..rows {
        let (a, b, c) = (i >> 16, (i >> 8) & 0xff, i & 0xff);
        nodes
            .insert_row(vec![
                Value::Int(i as i64),
                Value::Text(format!("00:50:8b:{a:02x}:{b:02x}:{c:02x}")),
                Value::Text(format!("node-{i}")),
                Value::Int(((i % 4) + 1) as i64),
                Value::Int((i / 64) as i64),
                Value::Int((i % 64) as i64),
                Value::Text(format!("10.{a}.{b}.{c}")),
                Value::Text(if i % 16 == 0 { "ia64" } else { "x86_64" }.to_string()),
            ])
            .unwrap();
    }
    let mut db = Database::new();
    db.add_table(nodes).unwrap();
    db.execute("create table memberships (id int, name text, compute text, appliance int)")
        .unwrap();
    db.execute(
        "insert into memberships values (1, 'Frontend', 'no', 1), (2, 'Compute', 'yes', 2), \
         (3, 'External', 'no', 3), (4, 'Ethernet Switches', 'no', 4)",
    )
    .unwrap();
    db.execute("create table appliances (id int, name text)").unwrap();
    db.execute(
        "insert into appliances values (1, 'frontend'), (2, 'compute'), (3, 'nas'), \
         (4, 'power')",
    )
    .unwrap();
    db
}

/// What the planner saves, as exact `rows_examined` counts rather than
/// wall-clock ratios: the §6.1 point lookup and the §6.4 compute join
/// against the forced scan, the scan↔index choice on one skewed column,
/// and a three-table join written in the worst FROM order, which only
/// join reordering rescues.
#[test]
fn planned_reads_examine_pinned_row_counts() {
    const JOIN: &str = "select nodes.name from nodes, memberships where \
         nodes.membership = memberships.id and memberships.compute = 'yes'";
    const BROAD: &str = "select name from nodes where arch = 'x86_64'";
    const SELECTIVE: &str = "select name from nodes where arch = 'ia64'";
    const THREE_TABLE: &str = "select nodes.name from nodes, appliances, memberships \
         where nodes.membership = memberships.id and memberships.appliance = appliances.id \
         and appliances.name = 'compute' and nodes.rank < 8";
    // (rows, three-table rows examined).
    let sizes: &[(usize, u64)] = if cfg!(debug_assertions) {
        &[(2_000, 502), (10_000, 2_502)]
    } else {
        &[(2_000, 502), (10_000, 2_502), (50_000, 12_502)]
    };
    for &(n, three_table) in sizes {
        let mut db = planner_database(n);
        let mid = n / 2;
        let (a, b, c) = (mid >> 16, (mid >> 8) & 0xff, mid & 0xff);
        let point = format!("select * from nodes where ip = '10.{a}.{b}.{c}'");
        for sql in [point.as_str(), JOIN, BROAD, SELECTIVE, THREE_TABLE] {
            let scanned = db.query_ref_scan(sql).unwrap();
            assert_eq!(db.query_ref(sql).unwrap(), scanned, "planned ≠ scan at {n} rows: {sql}");
        }
        let examined = |run: &dyn Fn() -> rocks_sql::Result<QueryResult>| {
            let before = db.stats().rows_examined();
            run().unwrap();
            db.stats().rows_examined() - before
        };
        let n64 = n as u64;
        let at = |what: &str| format!("{what} at {n} rows");
        assert_eq!(examined(&|| db.query_ref(&point)), 1, "{}", at("planned point"));
        assert_eq!(examined(&|| db.query_ref_scan(&point)), n64, "{}", at("scanned point"));
        assert_eq!(examined(&|| db.query_ref(JOIN)), n64 / 4 + 1, "{}", at("planned join"));
        assert_eq!(examined(&|| db.query_ref_scan(JOIN)), 4 * n64, "{}", at("scanned join"));
        assert_eq!(examined(&|| db.query_ref(BROAD)), n64, "{}", at("broad arch"));
        assert_eq!(examined(&|| db.query_ref(SELECTIVE)), n64 / 16, "{}", at("selective arch"));
        let got = examined(&|| db.query_ref(THREE_TABLE));
        assert_eq!(got, three_table, "{}", at("three-table join"));

        let broad = explain_text(&mut db, BROAD).join("\n");
        assert!(broad.contains("nodes: scan"), "{broad}");
        let selective = explain_text(&mut db, SELECTIVE).join("\n");
        assert!(selective.contains("index(arch = 'ia64')"), "{selective}");
    }
}

#[test]
fn empty_table_plans_and_estimates_zero() {
    let mut db = Database::new();
    db.execute("create table t (x int, tag text)").unwrap();
    let stats = db.table("t").unwrap().stats();
    assert_eq!(stats.rows, 0);
    assert_eq!(stats.est_eq_rows(0, &Value::Int(5)), 0.0);
    assert_eq!(stats.ndv(0), 0.0);
    // Planning on an empty table still runs and agrees with the scan.
    let sql = "select x from t where x = 5";
    assert_eq!(db.query_ref(sql).unwrap(), db.query_ref_scan(sql).unwrap());
    let text = explain_text(&mut db, sql);
    assert!(text.iter().any(|l| l.contains("est 0 rows")), "plan was {text:?}");
}

#[test]
fn all_null_column_estimates_and_matches_scan() {
    let mut db = Database::new();
    db.execute("create table t (id int, tag text)").unwrap();
    for i in 0..50 {
        db.execute(&format!("insert into t values ({i}, NULL)")).unwrap();
    }
    let stats = db.table("t").unwrap().stats();
    assert_eq!(stats.null_fraction(1), 1.0);
    assert_eq!(stats.non_null(1), 0.0);
    // Equality on an all-NULL column matches nothing; IS NULL everything.
    for sql in [
        "select id from t where tag = 'x'",
        "select id from t where tag is null",
        "select id from t where tag is not null",
        "select count(*) from t where tag = 'x' or id < 10",
    ] {
        assert_eq!(db.query_ref(sql).unwrap(), db.query_ref_scan(sql).unwrap(), "for {sql}");
    }
}

#[test]
fn single_value_column_scans_while_selective_column_probes() {
    let mut db = Database::new();
    db.execute("create table t (uniq int, same text)").unwrap();
    for i in 0..512 {
        db.execute(&format!("insert into t values ({i}, 'hot')")).unwrap();
    }
    // Every row matches `same = 'hot'`: probing an index would fetch the
    // whole table through candidate verification — scan instead.
    let broad = explain_text(&mut db, "select uniq from t where same = 'hot'");
    assert!(broad.iter().any(|l| l.contains("t: scan")), "plan was {broad:?}");
    // `uniq` is distinct per row: a point probe touches ~1 candidate.
    let narrow = explain_text(&mut db, "select same from t where uniq = 37");
    assert!(narrow.iter().any(|l| l.contains("index(uniq = 37)")), "plan was {narrow:?}");
    // Both choices stay correct.
    for sql in ["select uniq from t where same = 'hot'", "select same from t where uniq = 37"] {
        assert_eq!(db.query_ref(sql).unwrap(), db.query_ref_scan(sql).unwrap(), "for {sql}");
    }
}

#[test]
fn int_text_coercion_keys_stay_exact_on_either_join_side() {
    // '5' = 5 = '05' under sql_cmp, but '5' ≠ '05' — the histogram's
    // normalized keys group them together, and execution must re-verify.
    // Both tables hold the same tags and start with no index, so neither
    // order is cheaper and each FROM order keeps its own: the hash index
    // is built on `r` in one and on `l` in the other.
    for (from, probed) in [("l, r", "r"), ("r, l", "l")] {
        let mut db = Database::new();
        db.execute("create table l (id int, tag text)").unwrap();
        db.execute("create table r (id int, tag text)").unwrap();
        let spellings = ["'5'", "'05'", "' 5'", "'x'", "NULL", "'6'", "'007'", "'7'"];
        for (i, tag) in spellings.iter().enumerate() {
            db.execute(&format!("insert into l values ({i}, {tag})")).unwrap();
            db.execute(&format!("insert into r values ({}, {tag})", 10 + i)).unwrap();
        }
        let sql = format!("select l.id, r.id from {from} where l.tag = r.tag");
        assert_eq!(db.query_ref(&sql).unwrap(), db.query_ref_scan(&sql).unwrap(), "from {from}");
        let plan = explain_text(&mut db, &sql).join("\n");
        assert!(plan.contains(&format!("= {probed}.tag), scan")), "from {from}: {plan}");
    }
}

#[test]
fn plan_cache_recosts_after_100x_growth_with_hysteresis() {
    let mut db = Database::new();
    db.execute("create table t (id int, tag text)").unwrap();
    for i in 0..8 {
        db.execute(&format!("insert into t values ({i}, 'hot')")).unwrap();
    }
    let sql = "select id from t where tag = 'hot'";
    // Small table, predicate matching every row: the cached plan scans.
    db.query_ref(sql).unwrap();
    assert_eq!(db.stats().scan_executions(), 1);
    assert_eq!(db.stats().plan_cache_misses(), 1);

    // 100x growth with distinct tags turns 'hot' into a needle. The
    // size-band epoch evicts the stale scan plan and re-costing flips it
    // to an index probe — without any schema change.
    for i in 8..808 {
        db.execute(&format!("insert into t values ({i}, 'cold-{i}')")).unwrap();
    }
    db.query_ref(sql).unwrap();
    assert_eq!(db.stats().plan_cache_misses(), 2, "growth must re-plan");
    assert_eq!(db.stats().indexed_executions(), 1, "re-costed plan probes the index");
    assert_eq!(db.query_ref(sql).unwrap(), db.query_ref_scan(sql).unwrap());

    // Hysteresis: one more single-row INSERT stays inside the same size
    // band, so the freshly cached plan survives and the next query hits.
    let hits_before = db.stats().plan_cache_hits();
    db.execute("insert into t values (808, 'cold-808')").unwrap();
    db.query_ref(sql).unwrap();
    assert_eq!(db.stats().plan_cache_misses(), 2, "single-row insert must not evict");
    assert!(db.stats().plan_cache_hits() > hits_before);
}

/// Build the durable workload used by the mid-checkpoint crash test:
/// rows inserted, statistics warmed through the reader, then an explicit
/// checkpoint (which journals the stats-warm flag in the catalog).
fn run_stats_workload(db: &mut DurableDatabase) -> Result<(), DurableError> {
    db.execute("create table nodes (id int, tag text)")?;
    for i in 0..40 {
        db.execute(&format!("insert into nodes values ({i}, 'tag-{}')", i % 5))?;
    }
    // Planning through the reader builds (warms) nodes' statistics.
    let _ = db.reader().query_ref("select id from nodes where id = 7");
    db.checkpoint()?;
    // Post-checkpoint writes land in the WAL on top of the snapshot.
    for i in 40..48 {
        db.execute(&format!("insert into nodes values ({i}, 'late')"))?;
    }
    Ok(())
}

#[test]
fn stats_recover_after_crash_mid_checkpoint() {
    // Golden run: find the op range the checkpoint occupies.
    let vfs = MemVfs::new();
    let mut db = DurableDatabase::open(&vfs).unwrap();
    db.execute("create table nodes (id int, tag text)").unwrap();
    for i in 0..40 {
        db.execute(&format!("insert into nodes values ({i}, 'tag-{}')", i % 5)).unwrap();
    }
    let _ = db.reader().query_ref("select id from nodes where id = 7");
    let before_checkpoint = vfs.ops();
    db.checkpoint().unwrap();
    let after_checkpoint = vfs.ops();
    assert!(after_checkpoint > before_checkpoint, "checkpoint must write");
    drop(db);

    // Crash at every op inside (and just after) the checkpoint window.
    for at_op in before_checkpoint + 1..=after_checkpoint + 2 {
        let vfs = MemVfs::new();
        vfs.arm(CrashPlan { at_op, seed: at_op });
        let crashed = match DurableDatabase::open(&vfs) {
            Ok(mut db) => match run_stats_workload(&mut db) {
                Ok(()) => false,
                Err(DurableError::Disk(DiskError::Crashed)) => true,
                Err(e) => panic!("unexpected workload error at op {at_op}: {e}"),
            },
            Err(DurableError::Disk(DiskError::Crashed)) => true,
            Err(e) => panic!("unexpected open error at op {at_op}: {e}"),
        };
        assert!(crashed, "crash plan at op {at_op} never fired");

        let survivor = vfs.survivor();
        let db = DurableDatabase::open(&survivor).unwrap();
        // Whatever prefix survived, planning with recovered (or absent)
        // statistics must agree with the scan path exactly.
        if db.reader().table("nodes").is_some() {
            for sql in [
                "select id from nodes where id = 7",
                "select count(*) from nodes where tag = 'tag-3'",
                "select id from nodes where tag = 'late' and id > 41",
            ] {
                assert_eq!(
                    db.reader().query_ref(sql).unwrap(),
                    db.reader().query_ref_scan(sql).unwrap(),
                    "planned ≡ scan broke after crash at op {at_op} for {sql}"
                );
            }
        }
        // And recovery itself is deterministic: a second open of the
        // same survivor lands on the identical state.
        let fp = db.state_fingerprint();
        drop(db);
        assert_eq!(DurableDatabase::open(&survivor).unwrap().state_fingerprint(), fp);
    }
}
