//! WAL and recovery edge cases: empty logs, logs cut exactly on frame
//! boundaries, duplicated commit records, checkpoints interrupted
//! mid-write, recovery idempotence — and the plan-cache regression
//! guard (a cached plan must never serve rolled-back rows).

use rocks_sql::disk::CrashPlan;
use rocks_sql::durable::DurableDatabase;
use rocks_sql::wal::{self, WalRecord};
use rocks_sql::{DurableError, MemVfs};

const SETUP: &[&str] = &[
    "create table nodes (id int, name text, rack int)",
    "insert into nodes values (1, 'compute-0-0', 0)",
    "insert into nodes values (2, 'compute-0-1', 0)",
    "insert into nodes values (3, 'compute-1-0', 1)",
];

fn populated(vfs: &MemVfs) -> DurableDatabase {
    let mut db = DurableDatabase::open(vfs).unwrap();
    for sql in SETUP {
        db.execute(sql).unwrap();
    }
    db
}

/// A `nodes` table of about ten leaves, two checkpoints behind it (so
/// the data file has freed pages below its end), and since the last one
/// every kind of change a checkpoint folds: an overwrite in place, a row
/// that outgrows its leaf, a DELETE in the middle, appends, a new table.
fn populated_over_many_leaves(vfs: &MemVfs) -> DurableDatabase {
    let mut db = DurableDatabase::open(vfs).unwrap();
    db.execute("create table nodes (id int, name text, rack int, pad text)").unwrap();
    let insert = |db: &mut DurableDatabase, id: usize| {
        let pad = "p".repeat(900 + id % 7 * 30);
        db.execute(&format!("insert into nodes values ({id}, 'compute-0-{id}', 0, '{pad}')"))
            .unwrap();
    };
    (0..40).for_each(|id| insert(&mut db, id));
    db.checkpoint().unwrap();
    db.execute("update nodes set rack = 1 where id = 17").unwrap();
    db.execute("delete from nodes where id = 30").unwrap();
    db.checkpoint().unwrap();
    db.execute("update nodes set rack = 2 where id = 1").unwrap();
    db.execute(&format!("update nodes set pad = '{}' where id = 9", "g".repeat(3000))).unwrap();
    db.execute("delete from nodes where id = 20").unwrap();
    (40..46).for_each(|id| insert(&mut db, id));
    db.execute("create table ethers (node int, mac text)").unwrap();
    db.execute("insert into ethers values (1, 'aa:bb:00:00:00:01')").unwrap();
    db
}

fn wal_image(vfs: &MemVfs) -> Vec<u8> {
    use rocks_sql::Vfs;
    let file = vfs.open("wal").unwrap();
    let len = file.len().unwrap() as usize;
    let mut bytes = vec![0u8; len];
    file.read_exact_at(0, &mut bytes).unwrap();
    bytes
}

/// Build a vfs whose WAL holds exactly `image` (and nothing else).
fn vfs_with_wal(image: &[u8]) -> MemVfs {
    use rocks_sql::Vfs;
    let vfs = MemVfs::new();
    let mut file = vfs.open("wal").unwrap();
    file.write_at(0, image).unwrap();
    file.sync().unwrap();
    vfs
}

#[test]
fn empty_wal_file_opens_clean() {
    use rocks_sql::Vfs;
    let vfs = MemVfs::new();
    // Zero-length files present on disk (a crash right after creation).
    vfs.open("wal").unwrap().sync().unwrap();
    vfs.open("data").unwrap().sync().unwrap();
    let db = DurableDatabase::open(&vfs).unwrap();
    assert_eq!(db.seq(), 0);
    assert!(db.recovery_report().anomalies.is_empty());
    assert_eq!(db.recovery_report().commits_replayed, 0);
    assert!(db.reader().table_names().is_empty());
}

/// Truncating the log at EXACTLY a frame boundary is the one damage
/// shape that leaves no forensic residue. Every anomaly-free cut must
/// recover the clean committed prefix — no spurious anomalies, and a
/// state identical to an engine that only ever ran that prefix.
#[test]
fn truncation_at_every_frame_boundary_recovers_a_clean_prefix() {
    let vfs = MemVfs::new();
    populated(&vfs);
    let image = wal_image(&vfs);

    let mut boundaries = 0;
    for cut in 0..=image.len() {
        let scan = wal::scan_bytes(&image[..cut]);
        if !scan.anomalies.is_empty() {
            continue; // mid-frame or mid-transaction cut, covered elsewhere
        }
        boundaries += 1;
        let committed = scan.txns.len();

        let recovered = DurableDatabase::open(&vfs_with_wal(&image[..cut])).unwrap();
        assert!(
            recovered.recovery_report().anomalies.is_empty(),
            "clean cut at {cut} produced anomalies: {:?}",
            recovered.recovery_report().anomalies
        );
        assert_eq!(recovered.recovery_report().commits_replayed as usize, committed);

        // Same state as an engine that executed only the prefix.
        let fresh_vfs = MemVfs::new();
        let mut fresh = DurableDatabase::open(&fresh_vfs).unwrap();
        for sql in &SETUP[..committed] {
            fresh.execute(sql).unwrap();
        }
        assert_eq!(recovered.state_fingerprint(), fresh.state_fingerprint(), "cut at {cut}");
    }
    // One boundary per committed statement, plus the empty log.
    assert_eq!(boundaries, SETUP.len() + 1);
}

/// A crash between the checkpoint's header flip and the log truncation
/// can leave already-applied commits in the log — and a torn rewrite can
/// duplicate a commit record outright. Replay must treat duplicates as
/// no-ops, not corruption.
#[test]
fn duplicate_commit_records_are_skipped_on_replay() {
    let vfs = MemVfs::new();
    populated(&vfs);
    let mut image = wal_image(&vfs);

    let last = wal::scan_bytes(&image).txns.last().cloned().unwrap();
    // Duplicate the final commit record (twice, for good measure).
    for _ in 0..2 {
        image.extend(wal::encode_frame(&WalRecord::Commit {
            seq: last.seq,
            revision: last.revision,
            schema_gen: last.schema_gen,
        }));
    }

    let db = DurableDatabase::open(&vfs_with_wal(&image)).unwrap();
    assert_eq!(db.recovery_report().commits_replayed as usize, SETUP.len());
    assert_eq!(db.recovery_report().commits_skipped, 2);
    assert_eq!(db.seq(), last.seq);
    let rows = db.reader().query_ref("select id from nodes order by id").unwrap();
    assert_eq!(rows.rows.len(), 3);
}

/// Out-of-order duplicates (an old commit reappearing after newer ones)
/// are also skipped — only a forward gap is corruption.
#[test]
fn stale_commit_after_newer_ones_is_skipped() {
    let vfs = MemVfs::new();
    populated(&vfs);
    let mut image = wal_image(&vfs);
    image.extend(wal::encode_frame(&WalRecord::Commit { seq: 1, revision: 1, schema_gen: 1 }));
    let db = DurableDatabase::open(&vfs_with_wal(&image)).unwrap();
    assert_eq!(db.recovery_report().commits_skipped, 1);
    assert_eq!(db.seq(), SETUP.len() as u64);
}

/// A forward sequence gap means a committed transaction vanished from
/// the middle of the log: that is NOT survivable damage.
#[test]
fn sequence_gap_is_corruption() {
    let vfs = MemVfs::new();
    populated(&vfs);
    let mut image = wal_image(&vfs);
    image.extend(wal::encode_frame(&WalRecord::Begin { seq: 99 }));
    image.extend(wal::encode_frame(&WalRecord::Commit { seq: 99, revision: 99, schema_gen: 1 }));
    let err = DurableDatabase::open(&vfs_with_wal(&image)).unwrap_err();
    assert!(matches!(err, DurableError::Recovery(_)), "got {err:?}");
}

/// Kill the engine at every disk operation inside checkpoint(): a first
/// checkpoint of a small table, and one that folds changes into a tree
/// of many leaves through pages earlier checkpoints freed. Whatever the
/// kill point, the survivor must recover the full pre-checkpoint state,
/// and a second recovery must be a no-op.
#[test]
fn checkpoint_interrupted_at_every_write_recovers() {
    type Fixture = fn(&MemVfs) -> DurableDatabase;
    for (fixture, least_ops) in [(populated as Fixture, 5), (populated_over_many_leaves, 12)] {
        // Golden state the interrupted checkpoint must never lose.
        let golden_vfs = MemVfs::new();
        let golden = fixture(&golden_vfs);
        let golden_fp = golden.state_fingerprint();

        let mut kill_points = 0;
        for at in 1..200u64 {
            let vfs = MemVfs::new();
            let mut db = fixture(&vfs);
            // arm() restarts the op counter, so `at` counts mutating disk
            // ops from the start of the checkpoint itself.
            vfs.arm(CrashPlan { at_op: at, seed: 0xBAD_5EED ^ at });
            match db.checkpoint() {
                Err(DurableError::Disk(rocks_sql::DiskError::Crashed)) => kill_points += 1,
                Ok(()) => {
                    assert!(!vfs.crashed(), "checkpoint returned Ok after the crash fired");
                    break; // armed past the last checkpoint op: sweep complete
                }
                Err(other) => panic!("checkpoint failed without a crash: {other}"),
            }
            drop(db);

            let survivor = vfs.survivor();
            let recovered = DurableDatabase::open(&survivor).unwrap();
            assert_eq!(
                recovered.state_fingerprint(),
                golden_fp,
                "state lost when checkpoint died at relative op {at}"
            );
            drop(recovered);
            // Idempotence: recovery already repaired the disk; a second
            // open must see a clean database and change nothing.
            let mut again = DurableDatabase::open(&survivor).unwrap();
            assert_eq!(again.state_fingerprint(), golden_fp);
            assert!(
                again.recovery_report().anomalies.is_empty(),
                "second recovery still sees damage at relative op {at}: {:?}",
                again.recovery_report().anomalies
            );
            // And the checkpoint that died can be taken now, over
            // whatever it left in the pages it was writing.
            again.checkpoint().unwrap();
            drop(again);
            let after = DurableDatabase::open(&survivor).unwrap();
            assert_eq!(after.state_fingerprint(), golden_fp, "relative op {at}");
            assert_eq!(after.recovery_report().commits_replayed, 0);
        }
        assert!(
            kill_points >= least_ops,
            "checkpoint performed only {kill_points} interruptible ops"
        );
    }
}

/// Recovery is idempotent after mid-commit crashes too: opening the
/// survivor twice yields identical states and the second open sees a
/// repaired, anomaly-free disk.
#[test]
fn recovery_is_idempotent_after_mid_commit_crash() {
    for at in 1..40u64 {
        let vfs = MemVfs::new();
        let mut db = populated(&vfs);
        vfs.arm(CrashPlan { at_op: at, seed: at });
        match db.execute("insert into nodes values (4, 'compute-1-1', 1)") {
            Err(DurableError::Disk(rocks_sql::DiskError::Crashed)) => {}
            Ok(_) => continue, // armed past this commit's ops
            Err(other) => panic!("unexpected failure: {other}"),
        }
        drop(db);
        let survivor = vfs.survivor();
        let first = DurableDatabase::open(&survivor).unwrap();
        let fp = first.state_fingerprint();
        drop(first);
        let second = DurableDatabase::open(&survivor).unwrap();
        assert_eq!(second.state_fingerprint(), fp, "kill at relative op {at}");
        assert!(second.recovery_report().anomalies.is_empty(), "kill at relative op {at}");
    }
}

/// Regression (plan cache vs rollback): warm the plan cache inside a
/// transaction, roll the transaction back, and re-issue the same query
/// text. The cached plan must never serve the rolled-back rows — in
/// process, and after a recovery.
#[test]
fn stale_cached_plan_never_serves_rolled_back_rows() {
    let vfs = MemVfs::new();
    let mut db = populated(&vfs);
    let probe = "select name from nodes where rack = 1 order by id";
    // Warm the cache against pre-transaction contents too.
    assert_eq!(db.reader().query_ref(probe).unwrap().rows.len(), 1);

    db.begin().unwrap();
    db.execute("insert into nodes values (40, 'ghost-1-9', 1)").unwrap();
    // Re-warm the cache against the provisional contents.
    let provisional = db.reader().query_ref(probe).unwrap();
    assert_eq!(provisional.rows.len(), 2, "transaction contents visible before rollback");
    db.rollback().unwrap();

    let after = db.reader().query_ref(probe).unwrap();
    assert_eq!(after.rows.len(), 1, "cached plan served rolled-back rows");
    assert!(!format!("{after:?}").contains("ghost"), "rolled-back row leaked: {after:?}");

    drop(db);
    let recovered = DurableDatabase::open(&vfs).unwrap();
    let replayed = recovered.reader().query_ref(probe).unwrap();
    assert_eq!(replayed.rows.len(), 1, "rolled-back row survived recovery");
}
