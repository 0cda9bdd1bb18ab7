//! Differential property tests for the durable engine: a
//! [`DurableDatabase`] fed the same statements as a plain in-memory
//! [`Database`] must answer every query byte-identically — including
//! after being closed and reopened (recovered) at every commit
//! boundary, after checkpoints at arbitrary points, and after rolled
//! back transactions (which must leave no trace on either side).
//!
//! The table/query shapes mirror the planner's differential suite
//! (`proptest_plan.rs`): tiny collision-heavy domains and coercion
//! pitfalls, so recovery is exercised against exactly the states the
//! planner tests consider adversarial.

use proptest::prelude::*;
use rocks_sql::{Database, DurableDatabase, MemVfs};

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
    proptest::collection::vec((0i64..12, "[a-z]{1,6}", 0i64..5, 0i64..3, tag_strategy()), 0..16)
}

fn mutation_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        (0i64..12, 0i64..5, 0i64..3).prop_map(|(id, m, r)| {
            format!("insert into nodes values ({id}, 'new', {m}, {r}, '5')")
        }),
        (0i64..5, 0i64..5).prop_map(|(from, to)| {
            format!("update nodes set membership = {to} where membership = {from}")
        }),
        (0i64..12).prop_map(|id| format!("delete from nodes where id = {id}")),
    ]
}

/// The statement stream both engines execute: schema, then inserts,
/// then random mutations.
fn statements(nodes: &[NodeRow], mutations: &[String]) -> Vec<String> {
    let mut stmts =
        vec!["create table nodes (id int, name text, membership int, rack int, tag text)"
            .to_string()];
    for (id, name, membership, rack, tag) in nodes {
        stmts.push(format!(
            "insert into nodes values ({id}, '{}', {membership}, {rack}, {tag})",
            name.replace('\'', "''")
        ));
    }
    stmts.extend(mutations.iter().cloned());
    stmts
}

/// Queries diffed after the streams finish. Includes index-friendly
/// point lookups (the recovered engine warms the hash indexes the
/// catalog lists from its rows) and order-sensitive shapes.
const PROBES: &[&str] = &[
    "select * from nodes",
    "select * from nodes where id = 5",
    "select id from nodes where tag = '5'",
    "select id from nodes where tag = ' 5'",
    "select id from nodes where tag is null",
    "select id, name from nodes where membership = 2 order by id",
    "select rack, count(*) from nodes group by rack",
    "select id, name, rack from nodes order by rack desc, id limit 4",
];

fn assert_engines_agree(mem: &Database, durable: &DurableDatabase) {
    for sql in PROBES {
        let m = mem.query_ref(sql);
        let d = durable.reader().query_ref(sql);
        match (m, d) {
            (Ok(m), Ok(d)) => assert_eq!(m, d, "results diverged for {sql}"),
            (Err(m), Err(d)) => assert_eq!(m, d, "errors diverged for {sql}"),
            (m, d) => panic!("one engine failed for {sql}: memory={m:?} durable={d:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same statements, same answers — with checkpoints sprinkled in on
    /// the durable side (they must be invisible to query results).
    #[test]
    fn durable_equals_memory(
        nodes in node_rows(),
        mutations in proptest::collection::vec(mutation_strategy(), 0..6),
        checkpoint_mask in 0i64..(1i64 << 32),
    ) {
        let vfs = MemVfs::new();
        let mut durable = DurableDatabase::open(&vfs).unwrap();
        let mut mem = Database::new();
        for (i, sql) in statements(&nodes, &mutations).iter().enumerate() {
            let m = mem.execute(sql);
            let d = durable.execute(sql);
            prop_assert_eq!(m.is_ok(), d.is_ok(), "acceptance diverged for {}", sql);
            if checkpoint_mask >> (i % 32) & 1 == 1 {
                durable.checkpoint().unwrap();
            }
        }
        assert_engines_agree(&mem, &durable);
    }

    /// Close and reopen the durable engine after EVERY commit: each
    /// prefix of the statement stream must recover to exactly the state
    /// the in-memory engine reaches by re-execution.
    #[test]
    fn reopen_at_every_commit_boundary(
        nodes in node_rows(),
        mutations in proptest::collection::vec(mutation_strategy(), 0..4),
        checkpoint_mask in 0i64..(1i64 << 32),
    ) {
        let vfs = MemVfs::new();
        let mut mem = Database::new();
        for (i, sql) in statements(&nodes, &mutations).iter().enumerate() {
            // Reopen from disk, replaying the whole history so far.
            let mut durable = DurableDatabase::open(&vfs).unwrap();
            assert_engines_agree(&mem, &durable);
            let m = mem.execute(sql);
            let d = durable.execute(sql);
            prop_assert_eq!(m.is_ok(), d.is_ok(), "acceptance diverged for {}", sql);
            if checkpoint_mask >> (i % 32) & 1 == 1 {
                durable.checkpoint().unwrap();
            }
        }
        let durable = DurableDatabase::open(&vfs).unwrap();
        assert_engines_agree(&mem, &durable);
    }

    /// Rolled-back transactions leave no trace: contents, recovered
    /// state, and cached-plan answers all match an engine that never saw
    /// the transaction.
    #[test]
    fn rollback_leaves_no_trace(
        nodes in node_rows(),
        txn_stmts in proptest::collection::vec(mutation_strategy(), 1..5),
    ) {
        let vfs = MemVfs::new();
        let mut durable = DurableDatabase::open(&vfs).unwrap();
        let mut mem = Database::new();
        for sql in statements(&nodes, &[]) {
            let m = mem.execute(&sql);
            let d = durable.execute(&sql);
            prop_assert_eq!(m.is_ok(), d.is_ok());
        }
        // Warm the plan cache against pre-transaction contents.
        assert_engines_agree(&mem, &durable);
        durable.begin().unwrap();
        for sql in &txn_stmts {
            let _ = durable.execute(sql);
        }
        durable.rollback().unwrap();
        // In-process state, cached plans included, matches the engine
        // that never ran the transaction...
        assert_engines_agree(&mem, &durable);
        // ...and so does a recovery from disk.
        drop(durable);
        let recovered = DurableDatabase::open(&vfs).unwrap();
        assert_engines_agree(&mem, &recovered);
    }
}
