//! `db-ingest`: small durable transactions against a large table.
//!
//! The only workload where `sql::durable`, the WAL, the pager and
//! recovery do the work. The device is `MemVfs`, so every latency here
//! is the sandbox's CPU cost of the storage path, not a disk's. Flush
//! policy is the engine's default: one fsync per commit, an automatic
//! checkpoint when the WAL passes 256 KiB (never reached inside a round,
//! which checkpoints explicitly first).

use crate::estimator::{median, Better, Lane};
use crate::run::{Check, Layers, Outcome, Run};
use crate::trace::{median_duration, Recorder};
use crate::util::{node_values, timed, Rng};
use rocks_db::ClusterDb;
use rocks_sql::durable::fingerprint_database;
use rocks_sql::MemVfs;
use rocks_trace::Registry;

/// Rows preloaded at full size.
const ROWS: usize = 20_000;
/// One round: this many commits, then one checkpoint.
const COMMITS: usize = 8;
const ROWS_PER_COMMIT: usize = 16;

const STREAM_ROWS: u64 = 0x6462_0001;

pub struct Fixture {
    pub vfs: MemVfs,
    pub db: ClusterDb,
    /// The engine's own counters (`db.wal.bytes`, `db.wal.fsyncs`, ...).
    pub registry: Registry,
    rng: Rng,
    /// Rows inserted so far; also the next row's index.
    rows: usize,
    /// Rows loaded at set-up, which every round returns to.
    loaded: usize,
    /// Bytes of column values in the rows now in the table.
    user_bytes: u64,
    /// The same, as set-up left it.
    loaded_bytes: u64,
}

impl Fixture {
    /// The next row's `insert`, its values drawn from the seed.
    fn next_insert(&mut self) -> String {
        let values = node_values(&mut self.rng, self.rows);
        self.rows += 1;
        self.user_bytes += values.len() as u64;
        format!("insert into nodes values ({values})")
    }

    fn counter(&self, name: &str) -> u64 {
        self.registry.counter(name).get()
    }
}

/// Set-up: open a durable database on a fresh in-memory disk and load
/// the table in one transaction. The load's commit crosses the WAL
/// threshold, so the engine checkpoints it by its own policy.
pub fn build(run: &Run) -> Fixture {
    let vfs = MemVfs::new();
    let mut db = ClusterDb::open_durable(&vfs).expect("fresh durable database");
    let registry = Registry::new();
    db.bind_stats_registry(&registry);
    let mut fx = Fixture {
        vfs,
        db,
        registry,
        rng: Rng::new(run.seed, STREAM_ROWS),
        rows: 0,
        loaded: 0,
        user_bytes: 0,
        loaded_bytes: 0,
    };
    fx.db.begin_txn().expect("begin load");
    for _ in 0..run.size(ROWS, 1000) {
        let insert = fx.next_insert();
        fx.db.execute_raw(&insert).expect("load row");
    }
    fx.db.commit_txn().expect("commit load");
    (fx.loaded, fx.loaded_bytes) = (fx.rows, fx.user_bytes);
    if fx.counter("db.checkpoints") == 0 {
        fx.db.checkpoint().expect("checkpoint load");
    }
    fx
}

/// `COMMITS` transactions of `ROWS_PER_COMMIT` inserts. Statement text
/// is built before the clock starts. Returns begin-to-commit
/// nanoseconds per transaction.
fn commit_batch(fx: &mut Fixture, round: usize, rec: &Recorder, check: &mut Check) -> Vec<f64> {
    let mut commit_ns = Vec::with_capacity(COMMITS);
    for c in 0..COMMITS {
        let id = (round * COMMITS + c) as u64;
        let inserts: Vec<String> = (0..ROWS_PER_COMMIT).map(|_| fx.next_insert()).collect();
        let db = &mut fx.db;
        let (ok, ns) = timed(|| {
            rec.span("db.transaction", id, || {
                let mut ok = rec.span("sql.durable.begin", id, || db.begin_txn()).is_ok();
                for insert in &inserts {
                    ok &= rec.span("sql.durable.execute", id, || db.execute_raw(insert)).is_ok();
                }
                ok & rec.span("sql.durable.commit", id, || db.commit_txn()).is_ok()
            })
        });
        check.op(ok, || format!("round {round}: transaction {c} failed"));
        commit_ns.push(ns);
    }
    commit_ns
}

fn checkpoint(fx: &mut Fixture, round: usize, rec: &Recorder, check: &mut Check) -> f64 {
    let db = &mut fx.db;
    let (ok, ns) = timed(|| rec.span("sql.durable.checkpoint", round as u64, || db.checkpoint()));
    check.op(ok.is_ok(), || format!("round {round}: checkpoint failed: {ok:?}"));
    ns
}

/// Reopen from what a crash now would leave on disk: unflushed bytes
/// are discarded by `survivor`. Returns the recovered database and the
/// nanoseconds `open_durable` took.
fn recover(fx: &Fixture, index: usize, rec: &Recorder) -> (ClusterDb, f64) {
    let disk = fx.vfs.survivor();
    let (db, ns) =
        timed(|| rec.span("sql.recovery.open", index as u64, || ClusterDb::open_durable(&disk)));
    (db.expect("the survivor recovers"), ns)
}

/// Remove the rows the rounds added, in one transaction, so that every
/// round meets the table as set-up left it. Untimed.
fn unload(fx: &mut Fixture, check: &mut Check) {
    let delete = format!("delete from nodes where id > {}", fx.loaded);
    let ok = fx.db.begin_txn().is_ok()
        && fx.db.execute_raw(&delete).is_ok()
        && fx.db.commit_txn().is_ok();
    check.op(ok, || "removing a round's rows failed".into());
    fx.user_bytes = fx.loaded_bytes;
}

/// `db-ingest`. One round: a batch of transactions, a reopen from what a
/// crash at that moment would leave (a snapshot to load and the batch to
/// replay), the batch's rows removed again (untimed), then a checkpoint.
pub fn run(fx: &mut Fixture, run: &Run, rec: &Recorder) -> Outcome {
    let mut out = Outcome::default();
    let (mut commits_per_s, mut p50, mut latencies_ns) = (Vec::new(), Vec::new(), Vec::new());
    let (mut checkpoint_ms, mut recovery_ms) = (Vec::new(), Vec::new());
    out.floor_rss_mb = run.interleave(&[Lane::new(1.0, 20, 400)], |_, i| {
        let mut commit_ns = commit_batch(fx, i, rec, &mut out.check);
        commits_per_s.extend(commit_ns.iter().map(|ns| 1e9 / ns));
        p50.push(median(&mut commit_ns) / 1e3);
        latencies_ns.push(commit_ns);

        let (recovered, ns) = recover(fx, i, rec);
        recovery_ms.push(ns / 1e6);
        let replayed = recovered.recovery_report().map_or(0, |r| r.commits_replayed);
        out.check.op(replayed == COMMITS as u64, || {
            format!("round {i}: recovery replayed {replayed} commits, {COMMITS} were logged")
        });
        // Every acknowledged row present, and nothing else different.
        let count = recovered.query_names("select count(*) from nodes").unwrap_or_default();
        let acknowledged = fx.loaded + COMMITS * ROWS_PER_COMMIT;
        out.check.op(count == [acknowledged.to_string()], || {
            format!("round {i}: recovered {count:?} rows, {acknowledged} were acknowledged")
        });
        if i == 0 {
            let same = fingerprint_database(recovered.sql_ref(), 0, 0)
                == fingerprint_database(fx.db.sql_ref(), 0, 0);
            out.check.op(same, || "recovered content differs from the live database".into());
        }
        drop(recovered);

        unload(fx, &mut out.check);
        checkpoint_ms.push(checkpoint(fx, i, rec, &mut out.check) / 1e6);
    });
    out.put("ops_per_s", &commits_per_s, Better::Higher);
    out.put("op_p50_us", &p50, Better::Lower);
    // Eight transactions to a round, so the tail is taken over the clean
    // rounds pooled, and is the 90th percentile: of the forty-odd
    // transactions in the pool that leaves a handful beyond it.
    out.put_tail_us("op_tail_us", &mut latencies_ns, 0.9);
    out.put("bulk_ms", &checkpoint_ms, Better::Lower);
    out.put("restart_ms", &recovery_ms, Better::Lower);
    out
}

/// Per-layer metrics of the storage path.
pub fn layers(fx: &mut Fixture, rec: &Recorder, check: &mut Check, out: &mut Layers) {
    let mark = rec.len();
    // Row ids of a fixed width, however many rounds ran before, and an
    // empty log: the counts below are of this batch and repeat exactly.
    fx.rows = fx.loaded + 1_000_000;
    checkpoint(fx, 0, rec, check);
    let before = (fx.counter("db.wal.bytes"), fx.counter("db.wal.fsyncs"), fx.vfs.write_count());
    commit_batch(fx, 0, rec, check);
    let rows = (COMMITS * ROWS_PER_COMMIT) as f64;
    out.insert("sql.wal.bytes_per_row", (fx.counter("db.wal.bytes") - before.0) as f64 / rows);
    out.insert(
        "sql.wal.fsyncs_per_commit",
        (fx.counter("db.wal.fsyncs") - before.1) as f64 / COMMITS as f64,
    );
    out.insert(
        "sql.vfs.writes_per_commit",
        (fx.vfs.write_count() - before.2) as f64 / COMMITS as f64,
    );

    let (recovered, _) = recover(fx, 0, rec);
    let replayed = recovered.recovery_report().map_or(0, |r| r.commits_replayed);
    out.insert("sql.recovery.replayed_commits", replayed as f64);

    let pages = fx.counter("db.checkpoint.pages");
    checkpoint(fx, 1, rec, check);
    out.insert("sql.durable.checkpoint_pages", (fx.counter("db.checkpoint.pages") - pages) as f64);
    let stored: usize =
        ["wal", "data"].iter().filter_map(|f| fx.vfs.stable_bytes(f)).map(|b| b.len()).sum();
    out.insert("sql.durable.bytes_per_user_byte", stored as f64 / fx.user_bytes as f64);

    let spans = rec.spans_from(mark);
    let med = |name: &str| median_duration(&spans, name);
    out.insert("sql.durable.begin_ms", med("sql.durable.begin") / 1e6);
    out.insert("sql.durable.execute_us", med("sql.durable.execute") / 1e3);
    out.insert("sql.durable.commit_ms", med("sql.durable.commit") / 1e6);
}
