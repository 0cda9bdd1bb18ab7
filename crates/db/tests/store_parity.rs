//! A journal changes where a `ClusterDb`'s writes go, never what they
//! do: the same seeded operations driven through a journal-less and a
//! journaled database must return equal results and leave equal
//! contents, revision and transaction state after every step, and the
//! journaled one must reopen to where it stood.
//!
//! Any new `ClusterDb` write path belongs in [`Op`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rocks_db::{ClusterDb, DbError, Ipv4, Membership, NodeRecord};
use rocks_sql::durable::fingerprint_database;
use rocks_sql::MemVfs;
use rocks_trace::{Registry, Tracer};

/// One call on the `ClusterDb` write surface, misuse included.
#[derive(Debug)]
enum Op {
    AddNode(NodeRecord),
    AddMembership(Membership),
    SetGlobal(String, String),
    Raw(String),
    Begin,
    Commit,
    Rollback,
}

/// The two shapes of `app_globals` (the second makes the two-value
/// INSERT of `set_global` fail after its DELETE succeeded), rows for
/// either, and statements that fail or only read.
const RAW: &[&str] = &[
    "drop table app_globals",
    "create table app_globals (name text, value text)",
    "create table app_globals (name text, value text, extra int)",
    "insert into app_globals values ('k', 'old', 1)",
    "insert into app_globals values ('k', 'old')",
    "update nodes set rack = 7 where rank = 1",
    "delete from nodes where rank = 2",
    "select name from nodes",
    "insert into nodes values (1)",
    "insert into missing values (1)",
    "selec nothing",
];

fn ops(seed: u64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..48i64)
        .map(|i| match rng.gen_range(0u8..16) {
            0..=2 => {
                // A small MAC space, so duplicates are rejected too.
                let n = rng.gen_range(0i64..12);
                Op::AddNode(NodeRecord::new(
                    i,
                    &format!("aa:00:00:00:00:{n:02}"),
                    &format!("compute-0-{n}"),
                    2,
                    0,
                    n % 4,
                    Ipv4::new(10, 255, 255, 254 - n as u8),
                ))
            }
            3 => Op::AddMembership(Membership {
                id: 10 + i,
                name: format!("It's class {i}"),
                appliance: 2,
                compute: i % 2 == 0,
                basename: "extra".into(),
            }),
            4..=6 => Op::SetGlobal(["k", "Kickstart_Lang"][i as usize % 2].into(), format!("v{i}")),
            7..=11 => Op::Raw(RAW[rng.gen_range(0usize..RAW.len())].into()),
            12 | 13 => Op::Begin,
            14 => Op::Commit,
            _ => Op::Rollback,
        })
        .collect()
}

fn apply(db: &mut ClusterDb, op: &Op) -> Result<(), DbError> {
    match op {
        Op::AddNode(node) => db.add_node(node),
        Op::AddMembership(m) => db.add_membership(m),
        Op::SetGlobal(key, value) => db.set_global(key, value),
        Op::Raw(sql) => db.execute_raw(sql),
        Op::Begin => db.begin_txn(),
        Op::Commit => db.commit_txn(),
        Op::Rollback => db.rollback_txn(),
    }
}

fn contents(db: &ClusterDb) -> u64 {
    fingerprint_database(db.sql_ref(), 0, 0)
}

#[test]
fn journaled_and_journal_less_stores_agree_step_by_step() {
    let (mut failed_set_globals, mut misuses) = (0, 0);
    for seed in 0..64 {
        let vfs = MemVfs::new();
        let mut journaled = ClusterDb::open_durable(&vfs).unwrap();
        let mut plain = ClusterDb::new();
        assert_eq!(contents(&journaled), contents(&plain), "seed {seed}: fresh schema");
        for (step, op) in ops(seed).iter().enumerate() {
            let at = format!("seed {seed} step {step} {op:?}");
            let result = apply(&mut plain, op);
            assert_eq!(apply(&mut journaled, op), result, "{at}");
            assert_eq!(journaled.revision(), plain.revision(), "{at}");
            assert_eq!(journaled.in_txn(), plain.in_txn(), "{at}");
            assert_eq!(contents(&journaled), contents(&plain), "{at}");
            failed_set_globals += (matches!(op, Op::SetGlobal(..)) && result.is_err()) as u32;
            misuses += matches!(result, Err(DbError::Storage(_))) as u32;
        }
        // Only a committed write carries the revision to disk: end on one.
        for db in [&mut journaled, &mut plain] {
            if db.in_txn() {
                db.commit_txn().unwrap();
            }
            db.execute_raw("create table parity_end (x int)").unwrap();
        }
        drop(journaled);
        let reopened = ClusterDb::open_durable(&vfs).unwrap();
        assert_eq!(contents(&reopened), contents(&plain), "seed {seed}: reopened");
        assert_eq!(reopened.revision(), plain.revision(), "seed {seed}: reopened");
    }
    assert!(failed_set_globals > 20, "only {failed_set_globals} failing set_global calls");
    assert!(misuses > 100, "only {misuses} nested begins / commits and rollbacks without begin");
}

/// A `set_global` whose INSERT fails after its DELETE succeeded must
/// neither lose the key nor leave its own transaction open, with or
/// without a journal.
#[test]
fn failing_set_global_keeps_the_old_value_and_closes_its_transaction() {
    fn check(db: &mut ClusterDb) {
        db.execute_raw("drop table app_globals").unwrap();
        db.execute_raw("create table app_globals (name text, value text, extra int)").unwrap();
        db.execute_raw("insert into app_globals values ('k', 'old', 1)").unwrap();
        assert!(matches!(db.set_global("k", "new"), Err(DbError::Sql(_))));
        assert_eq!(db.global("k").unwrap().as_deref(), Some("old"));
        assert!(!db.in_txn());
        db.begin_txn().expect("no transaction was left open");
        // Inside a caller's transaction the failure is the caller's to
        // roll back; set_global neither commits nor abandons it.
        assert!(db.set_global("k", "new").is_err());
        assert!(db.in_txn());
        db.rollback_txn().unwrap();
        assert_eq!(db.global("k").unwrap().as_deref(), Some("old"));
    }
    check(&mut ClusterDb::new());

    let vfs = MemVfs::new();
    let mut durable = ClusterDb::open_durable(&vfs).unwrap();
    check(&mut durable);
    let (fp, revision) = (contents(&durable), durable.revision());
    drop(durable);
    let reopened = ClusterDb::open_durable(&vfs).unwrap();
    assert_eq!(contents(&reopened), fp);
    assert_eq!(reopened.global("k").unwrap().as_deref(), Some("old"));
    // The rolled-back calls moved the revision in memory only.
    assert!(reopened.revision() <= revision);
}

fn counter_names(registry: &Registry) -> Vec<String> {
    registry.snapshot().counters.into_keys().collect()
}

/// Without a journal nothing about journaling shows: no storage
/// counters, no spans, no recovery report, and a checkpoint has nothing
/// to do.
#[test]
fn a_journal_less_store_is_silent() {
    let mut db = ClusterDb::new();
    let registry = Registry::new();
    db.bind_stats_registry(&registry);
    db.begin_txn().unwrap();
    db.set_global("k", "v").unwrap();
    db.execute_raw("update app_globals set value = 'w' where name = 'k'").unwrap();
    db.commit_txn().unwrap();
    db.checkpoint().unwrap();
    assert!(!db.is_durable());
    assert!(db.recovery_report().is_none());

    let sql_only = Registry::new();
    rocks_sql::Database::new().bind_stats_registry(&sql_only);
    assert_eq!(counter_names(&registry), counter_names(&sql_only));
    assert!(!counter_names(&registry).iter().any(|name| name.starts_with("db.")));
}

/// A clone never shares the journal: it starts outside any transaction
/// at the same revision, and what it does reaches neither the
/// original's counters, nor its tracer, nor its disk.
#[test]
fn a_clone_of_a_journaled_store_has_no_journal() {
    let vfs = MemVfs::new();
    let tracer = Tracer::ring(1024);
    let mut original = ClusterDb::open_durable_with_tracer(&vfs, tracer.clone()).unwrap();
    original.set_global("k", "v").unwrap();
    original.begin_txn().unwrap();
    original.set_global("k", "provisional").unwrap();

    let mut copy = original.clone();
    assert!(!copy.is_durable() && !copy.in_txn() && copy.recovery_report().is_none());
    assert_eq!(copy.revision(), original.revision());
    assert_eq!(contents(&copy), contents(&original));

    let journaled = tracer.registry().unwrap().snapshot().counters;
    assert!(journaled["db.commits"] > 0 && journaled["db.wal.bytes"] > 0);
    let spans = tracer.dump().events.len();
    let writes = vfs.write_count();
    copy.begin_txn().unwrap();
    copy.set_global("k", "copy").unwrap();
    copy.commit_txn().unwrap();
    copy.checkpoint().unwrap();
    assert_eq!(tracer.dump().events.len(), spans, "the copy emitted db.commit / db.checkpoint");
    assert_eq!(tracer.registry().unwrap().snapshot().counters, journaled);
    assert_eq!(vfs.write_count(), writes);

    original.rollback_txn().unwrap();
    assert_eq!(original.global("k").unwrap().as_deref(), Some("v"));
    assert_eq!(copy.global("k").unwrap().as_deref(), Some("copy"));
}
