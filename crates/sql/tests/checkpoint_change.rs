//! Checkpoints that cost what changed: a seeded differential of
//! incremental checkpoints against a store built from scratch, the gate
//! that counts the pages a checkpoint writes (and the syncs, log appends
//! and disk writes a commit makes) at three table sizes, and
//! the edges the page heap added — a database the pages cannot hold,
//! the sync count, a data file that lies.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rocks_sql::disk::{crc32, CrashPlan};
use rocks_sql::durable::{fingerprint_database, DurableDatabase};
use rocks_sql::pager::{PAGE_PAYLOAD, PAGE_SIZE};
use rocks_sql::{DurableError, MemVfs, RecoveryError, SqlError, Value, Vfs};

const TABLES: [&str; 2] = ["nodes", "aux"];

fn create(table: &str) -> String {
    format!("create table {table} (id int, ip text, rack int, pad text)")
}

/// One random write statement; `next_id` numbers the rows of both tables.
fn write_stmt(rng: &mut StdRng, next_id: &mut i64) -> String {
    let table = TABLES[rng.gen_range(0usize..2)];
    let some_id = |rng: &mut StdRng| rng.gen_range(0i64..(*next_id).max(1));
    match rng.gen_range(0u8..12) {
        0..=4 => {
            let rows: Vec<String> = (0..rng.gen_range(1usize..24))
                .map(|_| {
                    *next_id += 1;
                    let (id, pad) = (*next_id, "p".repeat(rng.gen_range(10usize..600)));
                    format!(
                        "({id}, '10.{}.{}.{}', {}, '{pad}')",
                        id >> 16,
                        id >> 8 & 255,
                        id & 255,
                        id % 9
                    )
                })
                .collect();
            format!("insert into {table} values {}", rows.join(", "))
        }
        // In place, same size: one row, then one in every nine.
        5 => format!(
            "update {table} set rack = {} where id = {}",
            rng.gen_range(0i64..9),
            some_id(rng)
        ),
        6 => format!(
            "update {table} set rack = {} where rack = {}",
            rng.gen_range(0i64..9),
            rng.gen_range(0i64..9)
        ),
        // Grown past what its leaf has room for.
        7 => format!(
            "update {table} set pad = '{}' where id = {}",
            "g".repeat(rng.gen_range(1000usize..3900)),
            some_id(rng)
        ),
        8 => format!("delete from {table} where id = {}", some_id(rng)),
        9 => format!("delete from {table} where id > {}", *next_id - rng.gen_range(1i64..40)),
        10 => format!("delete from {table} where rack = {}", rng.gen_range(0i64..9)),
        _ => format!("drop table {table}"),
    }
}

/// Run `stmt`; a dropped table comes straight back, empty, under the
/// same name. Returns what was executed.
fn execute(db: &mut DurableDatabase, stmt: String) -> Vec<String> {
    db.execute(&stmt).unwrap_or_else(|e| panic!("{stmt}: {e}"));
    match stmt.strip_prefix("drop table ") {
        Some(table) => {
            db.execute(&create(table)).unwrap();
            vec![stmt.clone(), create(table)]
        }
        None => vec![stmt],
    }
}

fn content(db: &DurableDatabase) -> u64 {
    fingerprint_database(db.reader(), 0, 0)
}

/// Random inserts, updates (same size, grown past a page), deletes
/// (tail, middle, scattered), drop-and-create under the same name,
/// rolled-back transactions and checkpoints, with `nodes.ip` warm. After
/// every checkpoint the disk must reopen to the live state, and to the
/// state of a fresh store that ran the committed statements and
/// checkpointed once — whatever the incremental path reused, it reused
/// nothing stale.
#[test]
fn incremental_checkpoints_match_a_fresh_store() {
    let mut checkpoints = 0;
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(0xC4EC_0000 + seed);
        let vfs = MemVfs::new();
        let mut db = DurableDatabase::open(&vfs).unwrap();
        let mut committed: Vec<String> = TABLES.iter().map(|t| create(t)).collect();
        committed.iter().for_each(|stmt| drop(db.execute(stmt).unwrap()));
        let mut next_id = 0i64;
        for step in 0..70 {
            match rng.gen_range(0u8..10) {
                0..=5 => committed.extend(execute(&mut db, write_stmt(&mut rng, &mut next_id))),
                6 | 7 => {
                    // A transaction of a few writes, rolled back half the
                    // time: nothing it did may reach a later checkpoint.
                    db.begin().unwrap();
                    let mut done = Vec::new();
                    let mut ids = next_id;
                    for _ in 0..rng.gen_range(1usize..4) {
                        done.extend(execute(&mut db, write_stmt(&mut rng, &mut ids)));
                    }
                    if rng.gen_range(0u8..2) == 0 {
                        db.rollback().unwrap();
                    } else {
                        db.commit().unwrap();
                        committed.extend(done);
                        next_id = ids;
                    }
                }
                _ => {
                    let ip = Value::Text(format!("10.0.0.{}", rng.gen_range(0i64..256)));
                    let probe = db.reader().lookup_eq("nodes", "ip", &ip).unwrap().concat();
                    let warm = db.reader().table("nodes").unwrap().indexed_column_ids();
                    assert_eq!(warm, [1]);
                    db.checkpoint().unwrap();
                    checkpoints += 1;
                    let at = format!("seed {seed} step {step}");

                    let reopened = DurableDatabase::open(&vfs).unwrap();
                    assert_eq!(reopened.recovery_report().commits_replayed, 0, "{at}");
                    assert_eq!(reopened.state_fingerprint(), db.state_fingerprint(), "{at}");
                    let nodes = reopened.reader().table("nodes").unwrap();
                    assert_eq!(nodes.indexed_column_ids(), warm, "{at}: warm columns");
                    assert_eq!(
                        reopened.reader().lookup_eq("nodes", "ip", &ip).unwrap().concat(),
                        probe
                    );

                    let fresh_vfs = MemVfs::new();
                    let mut fresh = DurableDatabase::open(&fresh_vfs).unwrap();
                    committed.iter().for_each(|stmt| drop(fresh.execute(stmt).unwrap()));
                    fresh.checkpoint().unwrap();
                    drop(fresh);
                    let fresh = DurableDatabase::open(&fresh_vfs).unwrap();
                    assert_eq!(content(&reopened), content(&fresh), "{at}: fresh store differs");
                }
            }
        }
    }
    assert!(checkpoints > 100, "only {checkpoints} checkpoints compared");
}

/// Levels of a packed tree over at most `pages` leaves (292 children to
/// an internal page).
fn height_over(pages: u64) -> u64 {
    let (mut height, mut nodes) = (1, pages);
    while nodes > 1 {
        nodes = nodes.div_ceil(292);
        height += 1;
    }
    height
}

/// The O(change) gate. Pages written by a checkpoint follow what changed
/// since the last one, not what the table holds: the same count (give or
/// take the tree's height) at every table size, within a bound computed
/// from the bytes appended — with two hash indexes warm, which cost a
/// checkpoint nothing.
#[test]
fn checkpoint_pages_follow_the_change_not_the_table() {
    const CATALOG: u64 = 1;
    let sizes: &[usize] =
        if cfg!(debug_assertions) { &[2_000, 20_000] } else { &[2_000, 20_000, 200_000] };
    let row = |id: usize| {
        format!(
            "({id}, '10.{}.{}.{}', {}, 'compute-{id}')",
            id >> 16,
            id >> 8 & 255,
            id & 255,
            id % 9
        )
    };
    // An encoded row: its cell count, two ints, two length-prefixed
    // texts; and the leaf cell around it.
    let cell_bytes = |id: usize| {
        let texts = row(id).split('\'').skip(1).step_by(2).map(|t| 5 + t.len()).sum::<usize>();
        (14 + 4 + 2 * 9 + texts) as u64
    };
    let mut appended_pages = Vec::new();
    let mut commit_bytes = Vec::new();
    for &rows in sizes {
        let vfs = MemVfs::new();
        let mut db = DurableDatabase::open(&vfs).unwrap();
        db.execute(&create("nodes")).unwrap();
        db.begin().unwrap();
        for chunk in (0..rows).collect::<Vec<_>>().chunks(500) {
            let values: Vec<String> = chunk.iter().map(|&id| row(id)).collect();
            db.execute(&format!("insert into nodes values {}", values.join(", "))).unwrap();
        }
        db.commit().unwrap();
        let warm = |db: &DurableDatabase| {
            db.reader().lookup_eq("nodes", "ip", &Value::Text("10.0.0.7".into())).unwrap();
            db.reader().lookup_eq("nodes", "id", &Value::Int(7)).unwrap();
            assert_eq!(db.reader().table("nodes").unwrap().indexed_columns(), 2);
        };
        warm(&db);
        db.checkpoint().unwrap();
        let data_pages = vfs.stable_bytes("data").unwrap().len() as u64 / PAGE_SIZE as u64;
        let height = height_over(data_pages);
        // (pages, disk writes) of one more checkpoint.
        let checkpoint = |db: &mut DurableDatabase| {
            let before = (db.stats().checkpoint_pages(), vfs.write_count());
            db.checkpoint().unwrap();
            (db.stats().checkpoint_pages() - before.0, vfs.write_count() - before.1)
        };

        // 128 rows appended, in eight commits. The first is an explicit
        // transaction of 16 single-row inserts, and what it costs is a
        // count that does not see the table: one sync, one log append per
        // record, one disk write per append, nothing to undo.
        let counts = |db: &DurableDatabase| {
            let s = db.stats();
            [s.fsyncs(), s.wal_appends(), vfs.write_count(), s.undo_rows(), s.wal_bytes()]
        };
        let before = counts(&db);
        db.begin().unwrap();
        for id in rows..rows + 16 {
            db.execute(&format!("insert into nodes values {}", row(id))).unwrap();
        }
        db.commit().unwrap();
        let cost: Vec<u64> = counts(&db).iter().zip(before).map(|(a, b)| a - b).collect();
        assert_eq!(cost[..4], [1, 18, 18, 0], "{rows} rows: fsyncs, appends, writes, undo rows");
        commit_bytes.push((rows, cost[4]));
        for commit in 1..8 {
            let values: Vec<String> = (0..16).map(|i| row(rows + commit * 16 + i)).collect();
            db.execute(&format!("insert into nodes values {}", values.join(", "))).unwrap();
        }
        let appended: u64 = (rows..rows + 128).map(cell_bytes).sum();
        let (pages, writes) = checkpoint(&mut db);
        // The leaf the rows were appended to was part full, hence the 1.
        let bound = appended.div_ceil(PAGE_PAYLOAD as u64) + height + CATALOG + 1;
        assert!(pages <= bound, "{rows} rows: {pages} pages for 128 appended rows, bound {bound}");
        // Besides the pages: the header, the log's truncation, and the
        // data file's when its last pages fell free.
        assert!((pages + 2..=pages + 3).contains(&writes), "{rows} rows: {writes} writes");
        appended_pages.push((pages, height));

        // One row overwritten in place, same size.
        db.execute("update nodes set rack = 3 where id = 0").unwrap();
        warm(&db);
        let (pages, writes) = checkpoint(&mut db);
        assert!(pages <= height + CATALOG + 1, "{rows} rows: {pages} pages for one update");
        assert!((pages + 2..=pages + 3).contains(&writes), "{rows} rows: {writes} writes");

        // Nothing changed: the catalog, the header, the log's truncation.
        let (pages, writes) = checkpoint(&mut db);
        assert_eq!(pages, CATALOG, "{rows} rows, no change");
        assert!((CATALOG + 2..=CATALOG + 3).contains(&writes), "{rows} rows: {writes} writes");

        // Appended and deleted again is no change either.
        db.execute(&format!("insert into nodes values {}", row(rows + 128))).unwrap();
        db.execute(&format!("delete from nodes where id = {}", rows + 128)).unwrap();
        warm(&db);
        assert_eq!(checkpoint(&mut db).0, CATALOG, "{rows} rows, net of nothing");

        drop(db);
        let reopened = DurableDatabase::open(&vfs).unwrap();
        assert_eq!(reopened.reader().table("nodes").unwrap().len(), rows + 128);
        assert_eq!(reopened.reader().table("nodes").unwrap().indexed_columns(), 2);
    }
    let (least, most) =
        (appended_pages.iter().min().unwrap(), appended_pages.iter().max().unwrap());
    let tallest = appended_pages.iter().map(|p| p.1).max().unwrap();
    assert!(
        most.0 - least.0 <= tallest,
        "pages for the same 128 rows by table size: {appended_pages:?}"
    );
    // The transaction's log bytes: its 16 statements framed, plus a begin
    // and a commit frame. They move with the table only by the digits of
    // the ids and the addresses derived from them.
    let logged = [(2_000, 1_300), (20_000, 1_332), (200_000, 1_364)];
    assert_eq!(commit_bytes, logged[..sizes.len()]);
}

/// A checkpoint the engine cannot encode must not fail the commit that
/// triggered it. One row longer than a page used to turn the first
/// commit past the log threshold, and every commit after it, into an
/// error — for rows that were in memory, in the log, and survived a
/// reopen.
#[test]
fn a_checkpoint_the_pages_cannot_hold_does_not_fail_the_commit() {
    let vfs = MemVfs::new();
    let mut db = DurableDatabase::open(&vfs).unwrap();
    db.execute("create table t (x int, pad text)").unwrap();
    db.execute(&format!("insert into t values (0, '{}')", "L".repeat(5000))).unwrap();
    let pad = "p".repeat(512);
    for i in 1..=600 {
        db.execute(&format!("insert into t values ({i}, '{pad}')"))
            .unwrap_or_else(|e| panic!("insert #{i} reported failed: {e}"));
    }
    let stats = db.stats();
    assert!(stats.checkpoints_refused() > 0, "the log never reached the threshold");
    assert_eq!(stats.checkpoints(), 0);
    // Asked for by name, the checkpoint still says why it cannot be had.
    assert!(matches!(db.checkpoint(), Err(DurableError::Sql(SqlError::Unsupported(_)))));
    let fingerprint = db.state_fingerprint();
    let reopened = DurableDatabase::open(&vfs).unwrap();
    assert_eq!(reopened.state_fingerprint(), fingerprint);
    assert_eq!(reopened.reader().table("t").unwrap().len(), 601);
    // With the row gone the next commit folds the log as it always would.
    db.execute("delete from t where x = 0").unwrap();
    assert_eq!(db.stats().checkpoints(), 1);
    let fingerprint = db.state_fingerprint();
    let reopened = DurableDatabase::open(&vfs).unwrap();
    assert_eq!(reopened.state_fingerprint(), fingerprint);
    assert_eq!(reopened.recovery_report().commits_replayed, 0);
}

/// `db.wal.fsyncs` is the number of syncs the disk saw, whatever mix of
/// commits, rollbacks, checkpoints (with and without a cut of the data
/// file) and recoveries issued them.
#[test]
fn fsync_counter_matches_the_disk() {
    let vfs = MemVfs::new();
    let mut db = DurableDatabase::open(&vfs).unwrap();
    let agree = |db: &DurableDatabase, vfs: &MemVfs, at: &str| {
        assert_eq!(db.stats().fsyncs(), vfs.sync_count(), "{at}");
    };
    agree(&db, &vfs, "fresh open");
    db.execute("create table t (x int, pad text)").unwrap();
    let pad = "p".repeat(700);
    let mut cuts = 0;
    for round in 0..6 {
        db.begin().unwrap();
        for i in 0..40 {
            db.execute(&format!("insert into t values ({}, '{pad}')", round * 40 + i)).unwrap();
        }
        if round % 3 == 2 {
            db.rollback().unwrap();
        } else {
            db.commit().unwrap();
        }
        agree(&db, &vfs, "after a transaction");
        db.checkpoint().unwrap();
        agree(&db, &vfs, "after a checkpoint");
        // Shrinking the table frees the last pages: the next checkpoint
        // cuts the file, which is one more sync.
        db.execute(&format!("delete from t where x >= {}", round * 20)).unwrap();
        let len = vfs.stable_bytes("data").unwrap().len();
        db.checkpoint().unwrap();
        cuts += usize::from(vfs.stable_bytes("data").unwrap().len() < len);
        agree(&db, &vfs, "after a checkpoint of a shrunken table");
    }
    assert!(db.stats().checkpoints() == 12 && cuts >= 2, "{cuts} checkpoints cut the file");

    // Recovery's own syncs: the repair of a log tail a crash tore.
    let mut repairs = 0;
    for seed in 0..16 {
        let vfs = MemVfs::new();
        let mut db = DurableDatabase::open(&vfs).unwrap();
        db.execute("create table t (x int)").unwrap();
        vfs.arm(CrashPlan { at_op: 3, seed });
        assert!(db.execute("insert into t values (1)").is_err());
        let survivor = vfs.survivor();
        let recovered = DurableDatabase::open(&survivor).unwrap();
        repairs += usize::from(recovered.recovery_report().wal_tail_discarded > 0);
        agree(&recovered, &survivor, "after a recovery");
    }
    assert!(repairs > 0, "no crash left a torn tail to repair");
}

/// A data file of one table over `leaves` leaves under one internal
/// page, plus the catalog.
fn valid_data_file() -> Vec<u8> {
    let vfs = MemVfs::new();
    let mut db = DurableDatabase::open(&vfs).unwrap();
    db.execute("create table nodes (id int, pad text)").unwrap();
    for id in 0..60 {
        db.execute(&format!("insert into nodes values ({id}, '{}')", "p".repeat(900))).unwrap();
    }
    db.checkpoint().unwrap();
    vfs.stable_bytes("data").unwrap()
}

fn open_data(data: &[u8]) -> Result<DurableDatabase, DurableError> {
    let vfs = MemVfs::new();
    let mut file = vfs.open("data").unwrap();
    file.write_at(0, data).unwrap();
    file.sync().unwrap();
    DurableDatabase::open(&vfs)
}

/// Byte range of page `page`'s payload within the data file.
fn payload(page: usize) -> std::ops::Range<usize> {
    let start = PAGE_SIZE + page * PAGE_SIZE;
    start + 4..start + PAGE_SIZE
}

/// Give page `page` the checksum of whatever it now holds.
fn reseal(data: &mut [u8], page: usize) {
    let crc = crc32(&data[payload(page)]);
    data[payload(page).start - 4..payload(page).start].copy_from_slice(&crc.to_le_bytes());
}

/// Rewrite the u32 at `at` of every valid header slot, checksum included.
fn set_header_u32(data: &mut [u8], at: usize, value: u32) {
    for slot in [0, 2048] {
        if data[slot..slot + 8] == *b"2BDSKCOR" {
            data[slot + at..slot + at + 4].copy_from_slice(&value.to_le_bytes());
            let crc = crc32(&data[slot..slot + 52]);
            data[slot + 52..slot + 56].copy_from_slice(&crc.to_le_bytes());
        }
    }
}

/// Snapshot bytes that lie, under valid checksums, are
/// `RecoveryError::Corrupt` — never a panic, a loop or a quietly
/// different table: a page reached twice, a child or a catalog page past
/// the header's page count, leaves that repeat or skip rowids, a row
/// claiming more cells than it has bytes, a cell its column refuses, a
/// header an older engine wrote.
#[test]
fn hostile_snapshot_bytes_are_corrupt_never_a_panic() {
    let valid = valid_data_file();
    let pages = (valid.len() - PAGE_SIZE) / PAGE_SIZE;
    let intact = open_data(&valid).unwrap();
    assert_eq!(intact.reader().table("nodes").unwrap().len(), 60);
    // The one internal page, and where in its payload each child id is.
    let root = (0..pages).find(|&p| valid[payload(p)][0] == 2).expect("an internal page");
    let children =
        1 + u16::from_le_bytes([valid[payload(root)][1], valid[payload(root)][2]]) as usize;
    assert!(children >= 8, "only {children} leaves");
    let child_at = |i: usize| payload(root).start + if i == 0 { 3 } else { 7 + (i - 1) * 14 + 10 };
    let child = |data: &[u8], i: usize| {
        u32::from_le_bytes(data[child_at(i)..child_at(i) + 4].try_into().unwrap()) as usize
    };
    let corrupt = |data: &[u8], what: &str| match open_data(data) {
        Err(DurableError::Recovery(RecoveryError::Corrupt(_))) => {}
        Err(other) => panic!("{what}: {other:?}, not Corrupt"),
        Ok(_) => panic!("{what}: opened"),
    };

    let mut rng = StdRng::seed_from_u64(0xBAD_B17E5);
    for round in 0..40 {
        let (i, j) = (rng.gen_range(0..children), rng.gen_range(0..children - 1));
        let j = if j >= i { j + 1 } else { j };
        let past = (pages + rng.gen_range(0usize..1000)) as u32;

        // A leaf named twice: reached twice.
        let mut data = valid.clone();
        let twin = data[child_at(j)..child_at(j) + 4].to_vec();
        data[child_at(i)..child_at(i) + 4].copy_from_slice(&twin);
        reseal(&mut data, root);
        corrupt(&data, &format!("round {round}: child {i} names child {j}'s page"));

        // A child past the header's page count.
        let mut data = valid.clone();
        data[child_at(i)..child_at(i) + 4].copy_from_slice(&past.to_le_bytes());
        reseal(&mut data, root);
        corrupt(&data, &format!("round {round}: child {i} is page {past}"));

        // The catalog past it, and the catalog's next page.
        let mut data = valid.clone();
        set_header_u32(&mut data, 20, past);
        corrupt(&data, &format!("round {round}: catalog at page {past}"));
        let mut data = valid.clone();
        let catalog = u32::from_le_bytes(valid[20..24].try_into().unwrap()) as usize;
        data[payload(catalog)][..4].copy_from_slice(&past.to_le_bytes());
        reseal(&mut data, catalog);
        set_header_u32(&mut data, 24, PAGE_PAYLOAD as u32);
        corrupt(&data, &format!("round {round}: catalog continues at page {past}"));

        // Two leaves trade places: rowids skip ahead, then fall back.
        let mut data = valid.clone();
        let (a, b) = (child(&valid, i), child(&valid, j));
        data[child_at(i)..child_at(i) + 4].copy_from_slice(&(b as u32).to_le_bytes());
        data[child_at(j)..child_at(j) + 4].copy_from_slice(&(a as u32).to_le_bytes());
        reseal(&mut data, root);
        corrupt(&data, &format!("round {round}: leaves {i} and {j} swapped"));

        // One leaf holds another's rows: a run repeated, or skipped.
        let mut data = valid.clone();
        data.copy_within(payload(b).start - 4..payload(b).end, payload(a).start - 4);
        corrupt(&data, &format!("round {round}: leaf {i} is a copy of leaf {j}"));

        // Anything at all, resealed: an error or a database, not a panic,
        // and a database that opens can be written and checkpointed.
        let mut data = valid.clone();
        let page = rng.gen_range(0..pages);
        for _ in 0..rng.gen_range(1usize..4) {
            let at = payload(page).start + rng.gen_range(0usize..200);
            data[at] = rng.gen_range(0u32..256) as u8;
        }
        reseal(&mut data, page);
        match open_data(&data) {
            Ok(mut db) => {
                let _ = db.execute("insert into nodes values (99, 'x')");
                let _ = db.checkpoint();
            }
            Err(DurableError::Recovery(_)) => {}
            Err(other) => panic!("round {round}: {other:?}"),
        }
    }

    // The first row of the first leaf, resealed, so what refuses it is the
    // row's decode. Its cell count sits past the leaf header (kind, count)
    // and the cell's key length, value length and key; then the INT id,
    // tag and 8 bytes.
    let first_row = payload(child(&valid, 0)).start + 3 + 2 + 4 + 8;
    let refused = |data: &[u8], what: &str, reason: &str| match open_data(data) {
        Err(DurableError::Recovery(RecoveryError::Corrupt(e))) if e.contains(reason) => {}
        Err(other) => panic!("{what}: {other:?}, not Corrupt for {reason:?}"),
        Ok(_) => panic!("{what}: opened"),
    };
    // A cell count of u32::MAX: refused by the bytes left, before anything
    // is sized by it.
    let mut data = valid.clone();
    data[first_row..first_row + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    reseal(&mut data, child(&valid, 0));
    refused(&data, "a row of u32::MAX cells", "row claims");
    // The INT id as a TEXT cell of the same 9 bytes: it decodes, and the
    // insert path the row is staged through still refuses it.
    let mut data = valid.clone();
    let id = first_row + 4;
    assert_eq!(data[id], 1, "the first cell is an INT");
    data[id..id + 9].copy_from_slice(&[2, 4, 0, 0, 0, b'a', b'b', b'c', b'd']);
    reseal(&mut data, child(&valid, 0));
    refused(&data, "a TEXT cell in the INT column", "rejected on reload");

    // A header count past the end of the file.
    let mut data = valid.clone();
    set_header_u32(&mut data, 16, pages as u32 + 1);
    corrupt(&data, "more pages counted than the file holds");

    // The format before this one, recognisable by its magic.
    let mut data = valid.clone();
    for slot in [0, 2048] {
        data[slot..slot + 8].copy_from_slice(b"1BDSKCOR");
    }
    corrupt(&data, "ROCKSDB1 headers");
    let mut data = valid;
    data[..8].copy_from_slice(b"1BDSKCOR");
    corrupt(&data, "one ROCKSDB1 header beside a valid one");
}
