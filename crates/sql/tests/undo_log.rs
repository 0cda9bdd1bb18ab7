//! The undo log behind `begin` / `commit` / `rollback`: what it saves is
//! counted (never timed), what it restores is compared against a
//! fingerprint taken before the transaction, and every piece of
//! acceleration state — hash indexes, statistics, cached plans — is
//! checked against the scan path afterwards.

use proptest::prelude::*;
use rocks_sql::{CrashPlan, DiskError, DurableDatabase, DurableError, MemVfs, Value};

/// A durable `nodes` table of `rows` rows (ids `0..rows`, eight to a
/// rack), loaded in one transaction.
fn loaded(vfs: &MemVfs, rows: usize) -> DurableDatabase {
    let mut db = DurableDatabase::open(vfs).unwrap();
    db.execute("create table nodes (id int, name text, rack int)").unwrap();
    db.begin().unwrap();
    for chunk in (0..rows).collect::<Vec<_>>().chunks(1000) {
        let values: Vec<String> =
            chunk.iter().map(|id| format!("({id}, 'compute-{id}', {})", id / 8)).collect();
        db.execute(&format!("insert into nodes values {}", values.join(", "))).unwrap();
    }
    db.commit().unwrap();
    db
}

/// (a) What a transaction saves depends on what it changed, not on the
/// table it changed it in: the same counts at 20,000 and 200,000 rows.
#[test]
fn undo_log_saves_what_changed_at_any_table_size() {
    for rows in [20_000usize, 200_000] {
        let vfs = MemVfs::new();
        let mut db = loaded(&vfs, rows);
        assert_eq!(db.stats().undo_rows(), 0, "{rows} rows: the load only appended");

        db.begin().unwrap();
        for i in 0..16 {
            let id = rows + i;
            db.execute(&format!("insert into nodes values ({id}, 'new-{id}', 0)")).unwrap();
        }
        assert_eq!(db.reader().undo_rows(), 0, "{rows} rows: appends save no pre-image");
        db.commit().unwrap();
        assert_eq!(db.stats().undo_rows(), 0, "{rows} rows: 16 inserts");

        // Rack 3 holds ids 24..32: eight rows wherever the table ends.
        db.begin().unwrap();
        db.execute("update nodes set name = 'moved' where rack = 3").unwrap();
        db.commit().unwrap();
        assert_eq!(db.stats().undo_rows(), 8, "{rows} rows: an UPDATE of 8");

        db.begin().unwrap();
        db.execute("delete from nodes where rack = 4").unwrap();
        db.execute("update nodes set rack = 9 where id = -1").unwrap();
        db.rollback().unwrap();
        assert_eq!(db.stats().undo_rows(), 16, "{rows} rows: plus a DELETE of 8 and a miss");
        assert_eq!(db.reader().table("nodes").unwrap().len(), rows + 16);
        let snap = db.stats().registry().snapshot();
        assert_eq!(snap.counter("db.txn.undo_rows"), 16, "the registry carries the same count");
    }
}

/// Regression: a statement whose `Stmt` frame cannot be appended must
/// not stay in memory — "failed statements have no effect anywhere".
#[test]
fn statement_whose_journal_append_fails_is_undone_in_memory() {
    let vfs = MemVfs::new();
    let mut db = loaded(&vfs, 10);
    let probe = "select id from nodes where id = 99";
    db.begin().unwrap();
    db.execute("insert into nodes values (98, 'kept', 0)").unwrap();
    // The next mutating disk operation is the insert's Stmt append.
    vfs.arm(CrashPlan { at_op: 1, seed: 7 });
    let err = db.execute("insert into nodes values (99, 'ghost', 0)").unwrap_err();
    assert_eq!(err, DurableError::Disk(DiskError::Crashed));
    assert!(db.reader().query_ref(probe).unwrap().rows.is_empty(), "unjournaled row visible");
    assert_eq!(db.reader().table("nodes").unwrap().len(), 11, "earlier statements stay");
    // Same for DDL: the schema generation goes back with the table.
    let gen = db.reader().schema_generation();
    assert!(db.execute("create table ghost (x int)").is_err());
    assert!(db.reader().table("ghost").is_none());
    assert_eq!(db.reader().schema_generation(), gen);
}

/// The same outside a transaction: an auto-commit whose `Begin` or
/// `Stmt` frame cannot be appended is undone in memory, so the engine
/// never shows a row a restart would forget.
#[test]
fn auto_commit_the_journal_refuses_is_undone_in_memory() {
    let ghost_row = "insert into nodes values (99, 'ghost', 0)";
    let ghost_table = "create table ghost (x int)";
    // Mutating disk ops of an auto-commit: Begin, Stmt, Commit, fsync.
    for (refused, at_op, sql) in
        [("Begin", 1, ghost_row), ("Stmt", 2, ghost_row), ("Stmt", 2, ghost_table)]
    {
        let vfs = MemVfs::new();
        let mut db = loaded(&vfs, 10);
        let (fp, gen) = (db.state_fingerprint(), db.reader().schema_generation());
        vfs.arm(CrashPlan { at_op, seed: 7 });
        let err = db.execute(sql).unwrap_err();
        assert_eq!(err, DurableError::Disk(DiskError::Crashed), "{refused} refused: {sql}");
        assert_eq!(db.state_fingerprint(), fp, "{refused} refused: {sql} stayed in memory");
        assert_eq!(db.reader().schema_generation(), gen, "{refused} refused: {sql}");
        assert_eq!(db.reader().prepared_statements(), 0, "{refused} refused: a plan outlived it");
        assert!(!db.in_txn());
        let reopened = DurableDatabase::open(&vfs.survivor()).unwrap();
        assert_eq!(reopened.state_fingerprint(), fp, "{refused} refused: memory and disk agree");
    }
}

/// Once the `Commit` frame is on its way durability is unknown, and the
/// memory image stays — exactly as `commit()` treats the same failure.
#[test]
fn auto_commit_that_fails_at_the_commit_point_keeps_the_row() {
    for (point, at_op) in [("Commit frame", 3), ("fsync", 4)] {
        let vfs = MemVfs::new();
        let mut db = loaded(&vfs, 10);
        vfs.arm(CrashPlan { at_op, seed: 7 });
        let err = db.execute("insert into nodes values (99, 'kept', 0)").unwrap_err();
        assert_eq!(err, DurableError::Disk(DiskError::Crashed), "{point}");
        assert_eq!(db.reader().table("nodes").unwrap().len(), 11, "{point}: row kept");
    }
}

/// (c) Rolled-back DDL, then different DDL that reaches the same schema
/// generation: a plan prepared against the rolled-back table would
/// resolve `a` to the wrong column of its namesake.
#[test]
fn rolled_back_ddl_cannot_leave_a_plan_for_its_namesake() {
    fn fill(db: &mut DurableDatabase, row: impl Fn(usize) -> String) {
        let values: Vec<String> = (0..4000).map(row).collect();
        db.execute(&format!("insert into extra values {}", values.join(", "))).unwrap();
    }
    let vfs = MemVfs::new();
    let mut db = DurableDatabase::open(&vfs).unwrap();
    db.execute("create table nodes (id int)").unwrap();
    let gen = db.reader().schema_generation();
    let probe = "select a from extra where a = 7";

    db.begin().unwrap();
    db.execute("create table extra (a int, b int)").unwrap();
    fill(&mut db, |i| format!("({i}, {})", i + 100_000));
    let provisional = db.reader().query_ref(probe).unwrap();
    assert_eq!(provisional.rows, vec![vec![Value::Int(7)]]);
    assert!(db.reader().plan_cached(probe));
    db.rollback().unwrap();
    assert_eq!(db.reader().schema_generation(), gen, "generation restored exactly");
    assert_eq!(db.reader().prepared_statements(), 0, "rollback leaves a cold plan cache");

    // Same name, same size, same generation — columns the other way round.
    db.execute("create table extra (b int, a int)").unwrap();
    fill(&mut db, |i| format!("({}, {i})", i + 100_000));
    assert_eq!(db.reader().schema_generation(), gen + 1);
    let after = db.reader().query_ref(probe).unwrap();
    assert_eq!(after, db.reader().query_ref_scan(probe).unwrap());
    assert_eq!(after.rows, vec![vec![Value::Int(7)]]);
}

/// (d) Recovery replays the log and cross-checks the schema generation
/// it arrives at against the journaled one; a rollback that left the
/// counter ahead would fail that check on the next commit's record.
#[test]
fn generation_after_rollback_matches_what_recovery_replays() {
    let vfs = MemVfs::new();
    let mut db = loaded(&vfs, 10);
    db.begin().unwrap();
    db.execute("create table scratch (x int)").unwrap();
    db.execute("drop table nodes").unwrap();
    db.rollback().unwrap();
    db.begin().unwrap();
    db.execute("create table racks (id int)").unwrap();
    db.execute("insert into racks values (1)").unwrap();
    db.commit().unwrap();
    let (fp, gen) = (db.state_fingerprint(), db.reader().schema_generation());
    drop(db);
    let reopened = DurableDatabase::open(&vfs).expect("generation cross-check passes");
    assert_eq!(reopened.state_fingerprint(), fp);
    assert_eq!(reopened.reader().schema_generation(), gen);
    assert_eq!(reopened.reader().table_names(), vec!["nodes", "racks"]);
}

/// Statements for the transaction under test. Tiny, collision-heavy
/// domains so UPDATE and DELETE hit several rows, integer-shaped text so
/// an index holds one row under two keys, and statements that fail.
fn txn_statement() -> impl Strategy<Value = String> {
    let tag = prop_oneof![Just("'5'"), Just("'05'"), Just("'x'"), Just("NULL"), Just("6")];
    let rows = prop_oneof![
        (0i64..40, 0i64..4, tag.clone())
            .prop_map(|(id, rack, tag)| format!("insert into nodes values ({id}, {rack}, {tag})")),
        (0i64..4, tag.clone())
            .prop_map(|(rack, tag)| format!("update nodes set tag = {tag} where rack = {rack}")),
        (0i64..4, 0i64..4)
            .prop_map(|(from, to)| format!("update nodes set rack = {to} where rack = {from}")),
        (0i64..40).prop_map(|id| format!("delete from nodes where id < {id} and rack = 1")),
        tag.prop_map(|tag| format!("delete from nodes where tag = {tag}")),
        (0i64..9).prop_map(|id| format!("insert into racks values ({id}, 'rack-{id}')")),
    ];
    let tables_and_failures = prop_oneof![
        Just("delete from nodes"),
        Just("drop table racks"),
        Just("drop table nodes"),
        Just("create table racks (id int, label text)"),
        Just("create table nodes (tag text, id int, rack int)"),
        Just("create table spare (x int)"),
        Just("insert into spare values (1)"),
        Just("insert into nodes values ('not an int', 0, 'x')"),
        Just("update nodes set id = 'not an int' where rack = 2"),
    ]
    .prop_map(str::to_string);
    prop_oneof![rows.clone(), rows, tables_and_failures]
}

/// Read by the plan cache (`query_ref`) and by the scan path.
const POOL: &[&str] = &[
    "select * from nodes",
    "select id from nodes where tag = '5'",
    "select id from nodes where tag = 5",
    "select id from nodes where rack = 1 order by id",
    "select rack, count(*) from nodes group by rack",
    "select nodes.id, racks.label from nodes, racks where nodes.rack = racks.id",
    "select * from racks where id = 2",
    "select x from spare",
];

/// Every pooled query through the plan cache equals the scan path, and
/// every hash index answers as a scan does.
fn assert_acceleration_agrees(db: &DurableDatabase) {
    let r = db.reader();
    for sql in POOL {
        assert_eq!(r.query_ref(sql), r.query_ref_scan(sql), "plan cache vs scan for {sql}");
    }
    for (column, value, literal) in
        [("tag", Value::Text("5".into()), "'5'"), ("rack", Value::Int(1), "1")]
    {
        let sql = format!("select * from nodes where {column} = {literal}");
        let scan = r.query_ref_scan(&sql).ok();
        assert_eq!(
            r.lookup_eq("nodes", column, &value).ok(),
            scan.as_ref().map(|scan| scan.rows.iter().map(Vec::as_slice).collect()),
            "hash index on nodes.{column} vs scan"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// (b) Any mix of INSERT / UPDATE / DELETE / CREATE / DROP, some of
    /// them failing, run with indexes, statistics and plan cache warm:
    /// rollback restores the fingerprint exactly and leaves nothing that
    /// answers differently from a scan — in process and after recovery.
    #[test]
    fn rollback_restores_fingerprint_and_acceleration_state(
        seed_rows in proptest::collection::vec((0i64..40, 0i64..4), 0..24),
        txn in proptest::collection::vec(txn_statement(), 1..12),
        reads_inside in proptest::bool::ANY,
    ) {
        let vfs = MemVfs::new();
        let mut db = DurableDatabase::open(&vfs).unwrap();
        db.execute("create table nodes (id int, rack int, tag text)").unwrap();
        db.execute("create table racks (id int, label text)").unwrap();
        for (id, rack) in &seed_rows {
            db.execute(&format!("insert into nodes values ({id}, {rack}, '{}')", id % 7)).unwrap();
        }
        db.execute("insert into racks values (1, 'one'), (2, 'two')").unwrap();
        // Warm: plans, the indexes `lookup_eq` builds, statistics.
        assert_acceleration_agrees(&db);
        let _ = db.reader().table("nodes").unwrap().stats();
        let before = db.state_fingerprint();

        db.begin().unwrap();
        for sql in &txn {
            let _ = db.execute(sql);
            if reads_inside {
                // Plans, indexes and statistics built from provisional rows.
                assert_acceleration_agrees(&db);
                if let Some(t) = db.reader().table("nodes") {
                    let _ = t.stats();
                }
            }
        }
        db.rollback().unwrap();

        prop_assert_eq!(db.state_fingerprint(), before);
        assert_acceleration_agrees(&db);
        let nodes = db.reader().table("nodes").unwrap();
        prop_assert_eq!(nodes.stats().rows, nodes.len() as u64, "statistics describe the restored rows");
        // What the next transaction does on top is journaled against the
        // restored state, and recovers.
        db.begin().unwrap();
        db.execute("insert into nodes values (41, 1, '5')").unwrap();
        db.commit().unwrap();
        assert_acceleration_agrees(&db);
        let committed = db.state_fingerprint();
        drop(db);
        prop_assert_eq!(DurableDatabase::open(&vfs).unwrap().state_fingerprint(), committed);
    }
}
