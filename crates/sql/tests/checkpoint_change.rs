//! Checkpoints that cost what changed: a seeded differential of
//! incremental checkpoints against a store built from scratch, the gate
//! that counts the pages a checkpoint writes (and the syncs, log appends
//! and disk writes a commit makes) at three table sizes, and
//! the edges the page heap added — a database the pages cannot hold,
//! the sync count, a data file that lies.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rocks_sql::durable::{fingerprint_database, DurableDatabase};
use rocks_sql::{
    crc32, CrashPlan, DurableError, MemVfs, RecoveryError, SqlError, Value, Vfs, PAGE_PAYLOAD,
    PAGE_SIZE,
};

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

/// The O(change) gate. Pages written by a checkpoint follow what changed
/// since the last one, not what the table holds: the same count (give or
/// take a list page) at every table size, within a bound computed from
/// the bytes appended — with two hash indexes warm, which cost a
/// checkpoint nothing.
#[test]
fn checkpoint_pages_follow_the_change_not_the_table() {
    const CATALOG: u64 = 1;
    // The list page naming the changed leaves: at every size here they
    // fall on one.
    const LIST: u64 = 1;
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
    // texts; and its length in the leaf.
    let cell_bytes = |id: usize| {
        let texts = row(id).split('\'').skip(1).step_by(2).map(|t| 5 + t.len()).sum::<usize>();
        (2 + 4 + 2 * 9 + texts) as u64
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
        let bound = appended.div_ceil(PAGE_PAYLOAD as u64) + LIST + CATALOG + 1;
        assert!(pages <= bound, "{rows} rows: {pages} pages for 128 appended rows, bound {bound}");
        // Besides the pages: the header, the log's truncation, and the
        // data file's when its last pages fell free.
        assert!((pages + 2..=pages + 3).contains(&writes), "{rows} rows: {writes} writes");
        appended_pages.push(pages);

        // One row overwritten in place, same size.
        db.execute("update nodes set rack = 3 where id = 0").unwrap();
        warm(&db);
        let (pages, writes) = checkpoint(&mut db);
        assert!(pages <= 1 + LIST + CATALOG, "{rows} rows: {pages} pages for one update");
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
    assert!(most - least <= LIST, "pages for the same 128 rows by table size: {appended_pages:?}");
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

/// A data file of one table, `rows` rows of `pad` bytes, checkpointed
/// twice: both header slots valid, the second one live.
fn data_file(rows: usize, pad: usize) -> Vec<u8> {
    let vfs = MemVfs::new();
    let mut db = DurableDatabase::open(&vfs).unwrap();
    db.execute("create table nodes (id int, pad text)").unwrap();
    db.begin().unwrap();
    for id in 0..rows {
        db.execute(&format!("insert into nodes values ({id}, '{}')", "p".repeat(pad))).unwrap();
    }
    db.commit().unwrap();
    db.checkpoint().unwrap();
    db.checkpoint().unwrap();
    vfs.stable_bytes("data").unwrap()
}

/// Fifteen leaves of four rows on one list page, plus the catalog.
fn valid_data_file() -> Vec<u8> {
    data_file(60, 900)
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

fn u32_at(data: &[u8], at: usize) -> usize {
    u32::from_le_bytes(data[at..at + 4].try_into().unwrap()) as usize
}

/// The header slots this engine wrote, by their magic.
fn our_slots(data: &[u8]) -> impl Iterator<Item = usize> + '_ {
    [0, 2048].into_iter().filter(|&slot| data[slot..slot + 8] == *b"3BDSKCOR")
}

/// Rewrite the u32 at `at` of every valid header slot, checksum included.
fn set_header_u32(data: &mut [u8], at: usize, value: u32) {
    for slot in our_slots(data).collect::<Vec<_>>() {
        data[slot + at..slot + at + 4].copy_from_slice(&value.to_le_bytes());
        let crc = crc32(&data[slot..slot + 52]);
        data[slot + 52..slot + 56].copy_from_slice(&crc.to_le_bytes());
    }
}

/// The catalog's first page, as the live header names it.
fn catalog_page(data: &[u8]) -> usize {
    let generation =
        |slot: usize| u64::from_le_bytes(data[slot + 8..slot + 16].try_into().unwrap());
    u32_at(data, our_slots(data).max_by_key(|&slot| generation(slot)).unwrap() + 20)
}

/// The list pages the catalog names for the table of `rows` rows: the
/// count and ids after the row count (the catalog fits one page).
fn list_pages(data: &[u8], rows: u64) -> Vec<usize> {
    let catalog = &data[payload(catalog_page(data))];
    let at = catalog.windows(8).position(|w| w == rows.to_le_bytes()).unwrap() + 8;
    (0..u32_at(catalog, at)).map(|i| u32_at(catalog, at + 4 + 4 * i)).collect()
}

/// Snapshot bytes that lie, under valid checksums, are
/// `RecoveryError::Corrupt` — never a panic, a loop or a quietly
/// different table: a page reached twice, a leaf or a catalog page past
/// the header's page count, leaves that repeat or skip rowids, a leaf or
/// a row claiming more than it has bytes, a cell its column refuses, a
/// list page short of full before the last, a header an older engine
/// wrote.
#[test]
fn hostile_snapshot_bytes_are_corrupt_never_a_panic() {
    let valid = valid_data_file();
    let pages = (valid.len() - PAGE_SIZE) / PAGE_SIZE;
    let intact = open_data(&valid).unwrap();
    assert_eq!(intact.reader().table("nodes").unwrap().len(), 60);
    // The one list page, and where in its payload each leaf id is.
    let [list] = list_pages(&valid, 60)[..] else { panic!("not one list page") };
    let leaves = u16::from_le_bytes([valid[payload(list)][0], valid[payload(list)][1]]) as usize;
    assert!(leaves >= 8, "only {leaves} leaves");
    let catalog = catalog_page(&valid);
    let leaf_at = |i: usize| payload(list).start + 2 + 4 * i;
    let leaf = |data: &[u8], i: usize| u32_at(data, leaf_at(i));
    let corrupt = |data: &[u8], what: &str| match open_data(data) {
        Err(DurableError::Recovery(RecoveryError::Corrupt(_))) => {}
        Err(other) => panic!("{what}: {other:?}, not Corrupt"),
        Ok(_) => panic!("{what}: opened"),
    };
    let name = |data: &mut Vec<u8>, i: usize, page: usize| {
        data[leaf_at(i)..leaf_at(i) + 4].copy_from_slice(&(page as u32).to_le_bytes());
        reseal(data, list);
    };

    let mut rng = StdRng::seed_from_u64(0xBAD_B17E5);
    for round in 0..40 {
        let (i, j) = (rng.gen_range(0..leaves), rng.gen_range(0..leaves - 1));
        let j = if j >= i { j + 1 } else { j };
        let past = pages + rng.gen_range(0usize..1000);

        // A page reached twice: the list page names itself, or the
        // catalog, where a leaf belongs.
        let mut data = valid.clone();
        let twice = if round % 2 == 0 { list } else { catalog };
        name(&mut data, i, twice);
        corrupt(&data, &format!("round {round}: leaf {i} is page {twice}"));

        // A list page that names one leaf twice.
        let mut data = valid.clone();
        name(&mut data, i, leaf(&valid, j));
        corrupt(&data, &format!("round {round}: leaf {i} names leaf {j}'s page"));

        // A list page that names a page past the header's page count.
        let mut data = valid.clone();
        name(&mut data, i, past);
        corrupt(&data, &format!("round {round}: leaf {i} is page {past}"));

        // The catalog past it, and the catalog's next page.
        let mut data = valid.clone();
        set_header_u32(&mut data, 20, past as u32);
        corrupt(&data, &format!("round {round}: catalog at page {past}"));
        let mut data = valid.clone();
        data[payload(catalog)][..4].copy_from_slice(&(past as u32).to_le_bytes());
        reseal(&mut data, catalog);
        set_header_u32(&mut data, 24, PAGE_PAYLOAD as u32);
        corrupt(&data, &format!("round {round}: catalog continues at page {past}"));

        // Two leaves trade places: rowids skip ahead, then fall back.
        let mut data = valid.clone();
        let (a, b) = (leaf(&valid, i), leaf(&valid, j));
        name(&mut data, i, b);
        name(&mut data, j, a);
        corrupt(&data, &format!("round {round}: leaves {i} and {j} swapped"));

        // One leaf holds another's rows: a run repeated, or skipped.
        let mut data = valid.clone();
        data.copy_within(payload(b).start - 4..payload(b).end, payload(a).start - 4);
        corrupt(&data, &format!("round {round}: leaf {i} is a copy of leaf {j}"));

        // A short leaf: its row count runs past its bytes.
        let mut data = valid.clone();
        let count = payload(a).start + 8;
        data[count..count + 2].copy_from_slice(&rng.gen_range(300u16..=u16::MAX).to_le_bytes());
        reseal(&mut data, a);
        corrupt(&data, &format!("round {round}: leaf {i} claims more rows than it holds"));

        // Anything at all, resealed, on the list page, the catalog or any
        // page: an error or a database, not a panic, and a database that
        // opens can be written and checkpointed.
        let mut data = valid.clone();
        let page = [list, catalog, rng.gen_range(0..pages)][round % 3];
        for _ in 0..rng.gen_range(1usize..4) {
            let at = payload(page).start + rng.gen_range(0usize..200);
            data[at] = rng.gen_range(0u32..256) as u8;
        }
        reseal(&mut data, page);
        match open_data(&data) {
            Ok(mut db) => {
                // The bytes may have renamed the table or retyped a column.
                let _ = db.execute("insert into nodes values (99, 'x')");
                db.checkpoint().unwrap_or_else(|e| panic!("round {round}: {e:?}"));
            }
            Err(DurableError::Recovery(_)) => {}
            Err(other) => panic!("round {round}: {other:?}"),
        }
    }

    // The first row of the first leaf, resealed, so what refuses it is the
    // row's decode. Its cell count sits past the leaf header (first rowid,
    // row count) and the row's length; then the INT id, tag and 8 bytes.
    let first_row = payload(leaf(&valid, 0)).start + 8 + 2 + 2;
    let refused = |data: &[u8], what: &str, reason: &str| match open_data(data) {
        Err(DurableError::Recovery(RecoveryError::Corrupt(e))) if e.contains(reason) => {}
        Err(other) => panic!("{what}: {other:?}, not Corrupt for {reason:?}"),
        Ok(_) => panic!("{what}: opened"),
    };
    // A cell count of u32::MAX: refused by the bytes left, before anything
    // is sized by it.
    let mut data = valid.clone();
    data[first_row..first_row + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    reseal(&mut data, leaf(&valid, 0));
    refused(&data, "a row of u32::MAX cells", "row claims");
    // The INT id as a TEXT cell of the same 9 bytes: it decodes, and the
    // insert path the row is staged through still refuses it.
    let mut data = valid.clone();
    let id = first_row + 4;
    assert_eq!(data[id], 1, "the first cell is an INT");
    data[id..id + 9].copy_from_slice(&[2, 4, 0, 0, 0, b'a', b'b', b'c', b'd']);
    reseal(&mut data, leaf(&valid, 0));
    refused(&data, "a TEXT cell in the INT column", "rejected on reload");

    // A header count past the end of the file.
    let mut data = valid.clone();
    set_header_u32(&mut data, 16, pages as u32 + 1);
    corrupt(&data, "more pages counted than the file holds");

    // The formats before this one, recognisable by their magic: with no
    // header of ours beside it, the file is refused, never taken for
    // headerless and erased.
    for format in ["ROCKSDB1", "ROCKSDB2"] {
        let magic: Vec<u8> = format.bytes().rev().collect();
        let mut data = valid.clone();
        for slot in [0, 2048] {
            data[slot..slot + 8].copy_from_slice(&magic);
        }
        refused(&data, &format!("{format} headers"), format);
        // One header as that engine wrote it, beside a valid one: ROCKSDB2's
        // is this format's under its own magic, ROCKSDB1's held the
        // region's byte offset after the generation.
        let mut older = magic.clone();
        older.extend_from_slice(&valid[8..16]);
        if format == "ROCKSDB1" {
            older.extend_from_slice(&4096u64.to_le_bytes());
        }
        older.extend_from_slice(&valid[16..52]);
        let crc = crc32(&older);
        older.extend_from_slice(&crc.to_le_bytes());
        let mut data = valid.clone();
        data[..older.len()].copy_from_slice(&older);
        refused(&data, &format!("one {format} header beside a valid one"), format);
        // Our magic with a bit flipped to theirs is a damaged header, not
        // an older engine's: the other slot stands.
        let mut data = valid.clone();
        data[0] = format.as_bytes()[7];
        open_data(&data).unwrap_or_else(|e| panic!("{format} by a flipped bit: {e:?}"));
    }

    // Two list pages, the first short of full by the id that moved to the
    // front of the second: every leaf is still read once and in order,
    // and the next checkpoint would take the second list for the leaves
    // from 1,022 on.
    let rows = 1_030;
    let long = data_file(rows, 2_100);
    let [first, second] = list_pages(&long, rows as u64)[..] else { panic!("not two lists") };
    let count = |data: &[u8], list: usize| {
        u16::from_le_bytes([data[payload(list)][0], data[payload(list)][1]]) as usize
    };
    let (full, rest) = (count(&long, first), count(&long, second));
    assert_eq!((full, rest), (1_022, rows - 1_022), "one row to a leaf");
    assert_eq!(open_data(&long).unwrap().reader().table("nodes").unwrap().len(), rows);
    let mut data = long.clone();
    let moved = data[payload(first).start + 2 + 4 * (full - 1)..][..4].to_vec();
    data[payload(first)][..2].copy_from_slice(&(full as u16 - 1).to_le_bytes());
    let ids = payload(second).start + 2..payload(second).start + 2 + 4 * rest;
    data.copy_within(ids.clone(), ids.start + 4);
    data[ids.start..ids.start + 4].copy_from_slice(&moved);
    data[payload(second)][..2].copy_from_slice(&(rest as u16 + 1).to_le_bytes());
    reseal(&mut data, first);
    reseal(&mut data, second);
    refused(&data, "a first list page one id short", "leaves in list 0 of 2");
}
