//! The transactional engine: an in-memory [`Database`] plus the
//! begin / commit / rollback state machine and the revision counter,
//! with an *optional* journal — a write-ahead log checkpointed through
//! the pager — that makes it survive restarts.
//!
//! There is one engine, not a volatile one and a durable one. Every
//! statement runs against `mem`; with a journal
//! ([`DurableDatabase::open`]) the statement text of each successful
//! write is also logged and the whole state is periodically folded into
//! a B-tree snapshot, without one ([`DurableDatabase::in_memory`]) those
//! steps are skipped and nothing else differs. Only the journal steps —
//! appending a frame, the commit fsync, truncating the log on rollback,
//! `checkpoint` — look at whether there is one. Opening an existing
//! directory replays: live snapshot first, then every committed WAL
//! transaction beyond it (see [`crate::recovery`]).
//!
//! A checkpoint costs what changed since the one before. The memory
//! engine of a journaled database carries, per table, the image of the
//! B-tree the live snapshot holds ([`crate::btree`]) and flags on it the
//! rows each write changes; `checkpoint` re-packs from those flags —
//! the changed leaves, the internal pages above them — into pages the
//! live header cannot reach, writes the catalog, and flips the header
//! ([`crate::pager`]). A first checkpoint is the same code with no
//! images to reuse.
//!
//! Commit protocol (auto-commit shown; explicit transactions just spread
//! the same frames out):
//!
//! ```text
//! append Begin{seq}  →  append Stmt{sql}...  →  append Commit{seq,rev,gen}  →  fsync(wal)
//! ```
//!
//! The single fsync *after* the commit frame is the durability point.
//! `begin` takes a [`Savepoint`] on the memory engine, which from then
//! on logs what reverses each statement; neither `begin` nor `commit`
//! touches a row the transaction did not. Rollback truncates the WAL
//! back to the transaction's start and undoes the statements newest
//! first — leaving a cold plan cache, so a statement cached during the
//! transaction can never serve rolled-back rows.

use crate::btree::{self, TreeImage};
use crate::codec;
use crate::disk::{DiskError, Vfs};
use crate::exec::ExecOutcome;
use crate::pager::Pager;
use crate::recovery::{self, CatalogTable, RecoveryError, RecoveryReport};
use crate::wal::{self, WalRecord, WalWriter};
use crate::{Database, Savepoint, SqlError};
use rocks_trace::{Counter, Registry, Tracer};

/// Checkpoint policy: fold the WAL into a snapshot once it exceeds this
/// many bytes (checked at commit boundaries, never mid-transaction).
const CHECKPOINT_WAL_BYTES: u64 = 256 * 1024;

/// Errors from the durable engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurableError {
    /// The statement itself failed; nothing was journaled and the
    /// in-memory state is unchanged.
    Sql(SqlError),
    /// The disk failed (includes the fault injector's `Crashed`).
    Disk(DiskError),
    /// Recovery could not reconstruct a committed prefix.
    Recovery(RecoveryError),
    /// Transaction misuse (nested begin, commit without begin, ...).
    Txn(String),
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Sql(e) => write!(f, "sql: {e}"),
            DurableError::Disk(e) => write!(f, "disk: {e}"),
            DurableError::Recovery(e) => write!(f, "recovery: {e}"),
            DurableError::Txn(m) => write!(f, "transaction: {m}"),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<SqlError> for DurableError {
    fn from(e: SqlError) -> Self {
        DurableError::Sql(e)
    }
}

impl From<DiskError> for DurableError {
    fn from(e: DiskError) -> Self {
        DurableError::Disk(e)
    }
}

impl From<RecoveryError> for DurableError {
    fn from(e: RecoveryError) -> Self {
        DurableError::Recovery(e)
    }
}

/// Result alias for durable-engine operations.
pub type DurableResult<T> = std::result::Result<T, DurableError>;

/// Storage-engine telemetry, [`Registry`]-backed like
/// [`crate::QueryStats`] so one cluster-wide ledger holds everything.
#[derive(Debug, Clone)]
pub struct DurableStats {
    registry: Registry,
    wal_appends: Counter,
    wal_bytes: Counter,
    fsyncs: Counter,
    commits: Counter,
    checkpoints: Counter,
    checkpoint_pages: Counter,
    checkpoints_refused: Counter,
    recovery_replayed: Counter,
    recovery_anomalies: Counter,
    undo_rows: Counter,
}

impl DurableStats {
    fn bound_to(registry: Registry) -> Self {
        DurableStats {
            wal_appends: registry.counter("db.wal.appends"),
            wal_bytes: registry.counter("db.wal.bytes"),
            fsyncs: registry.counter("db.wal.fsyncs"),
            commits: registry.counter("db.commits"),
            checkpoints: registry.counter("db.checkpoints"),
            checkpoint_pages: registry.counter("db.checkpoint.pages"),
            checkpoints_refused: registry.counter("db.checkpoint.refused"),
            recovery_replayed: registry.counter("db.recovery.commits_replayed"),
            recovery_anomalies: registry.counter("db.recovery.anomalies"),
            undo_rows: registry.counter("db.txn.undo_rows"),
            registry,
        }
    }

    /// The registry these counters feed.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// WAL frames appended.
    pub fn wal_appends(&self) -> u64 {
        self.wal_appends.get()
    }

    /// WAL bytes appended.
    pub fn wal_bytes(&self) -> u64 {
        self.wal_bytes.get()
    }

    /// `fsync` calls issued (WAL and data file).
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs.get()
    }

    /// Transactions committed.
    pub fn commits(&self) -> u64 {
        self.commits.get()
    }

    /// Checkpoints completed.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints.get()
    }

    /// Pages written across all checkpoints.
    pub fn checkpoint_pages(&self) -> u64 {
        self.checkpoint_pages.get()
    }

    /// Automatic checkpoints given up because a row does not fit a page;
    /// the commits that triggered them stood, on the log.
    pub fn checkpoints_refused(&self) -> u64 {
        self.checkpoints_refused.get()
    }

    /// Commits replayed by the open-time recovery.
    pub fn recovery_replayed(&self) -> u64 {
        self.recovery_replayed.get()
    }

    /// Tail anomalies found by the open-time recovery.
    pub fn recovery_anomalies(&self) -> u64 {
        self.recovery_anomalies.get()
    }

    /// Rows that finished transactions (committed or rolled back) had
    /// saved for undo: what they displaced, never what they appended —
    /// see [`Database::undo_rows`].
    pub fn undo_rows(&self) -> u64 {
        self.undo_rows.get()
    }
}

impl Default for DurableStats {
    fn default() -> Self {
        DurableStats::bound_to(Registry::new())
    }
}

/// Where `begin` stood, in memory and in the log.
#[derive(Debug)]
struct TxnState {
    savepoint: Savepoint,
    wal_start: u64,
    seq: u64,
}

/// What makes an engine survive restarts, and the telemetry of doing so.
#[derive(Debug)]
struct Journal {
    wal: WalWriter,
    pager: Pager,
    /// Pages of the live snapshot's catalog, which every checkpoint
    /// replaces.
    catalog_pages: Vec<u32>,
    stats: DurableStats,
    tracer: Tracer,
}

impl Journal {
    fn append(&mut self, rec: &WalRecord) -> DurableResult<()> {
        let bytes = self.wal.append(rec)?;
        self.stats.wal_appends.incr();
        self.stats.wal_bytes.add(bytes);
        Ok(())
    }
}

/// A transactional [`Database`] that, given a journal, survives
/// restarts. See the module docs.
#[derive(Debug)]
pub struct DurableDatabase {
    mem: Database,
    journal: Option<Journal>,
    /// Last journaled transaction sequence number.
    seq: u64,
    /// The mutation counter the cluster layer keys caches on; rides every
    /// commit record so recovery hands the committed value back.
    revision: u64,
    txn: Option<TxnState>,
    report: RecoveryReport,
}

impl DurableDatabase {
    /// An engine without a journal around `mem`: same transactions, same
    /// revision counter, nothing written anywhere.
    pub fn in_memory(mem: Database, revision: u64) -> Self {
        let report = RecoveryReport::default();
        DurableDatabase { mem, journal: None, seq: 0, revision, txn: None, report }
    }

    /// Open (or create) the database stored in `vfs`, replaying as
    /// needed.
    pub fn open(vfs: &dyn Vfs) -> DurableResult<Self> {
        Self::open_with_tracer(vfs, Tracer::disabled())
    }

    /// [`open`](Self::open) with spans and counters flowing into
    /// `tracer`.
    pub fn open_with_tracer(vfs: &dyn Vfs, tracer: Tracer) -> DurableResult<Self> {
        let stats = match tracer.registry() {
            Some(r) => DurableStats::bound_to(r.clone()),
            None => DurableStats::default(),
        };
        let _span = tracer.span("db.recovery");
        let wal_file = vfs.open("wal")?;
        let data_file = vfs.open("data")?;
        let mut pager = Pager::open(data_file)?;

        let mut report = RecoveryReport::default();
        let mut catalog_pages = Vec::new();
        let (mut mem, mut seq, mut revision) = match pager.live().copied() {
            Some(meta) => {
                let db;
                (db, catalog_pages) = recovery::load_snapshot(&mut pager)?;
                report.checkpoint_seq = meta.checkpoint_seq;
                (db, meta.checkpoint_seq, meta.revision)
            }
            None => (Database::new(), 0, 0),
        };
        // From here on — the replay below included — every write flags
        // what it changes against the snapshot's images.
        mem.images.get_or_insert_with(Default::default);

        let scan = wal::scan(&*wal_file)?;
        report.anomalies = scan.anomalies.clone();
        if pager.headerless_damage() {
            // A non-empty data file with no valid header is survivable
            // only if the crash hit the *first* checkpoint — then the WAL
            // was never truncated and must still start at commit 1. A log
            // starting later means a once-valid snapshot was destroyed
            // and the committed prefix is gone: hard error.
            if let Some(first) = scan.txns.first() {
                if first.seq != 1 {
                    return Err(RecoveryError::ChecksumMismatch(format!(
                        "no valid snapshot header, but the log starts at commit {} — \
                         a completed checkpoint has been destroyed",
                        first.seq
                    ))
                    .into());
                }
            }
            report.anomalies.push(RecoveryError::TornWrite(
                "snapshot header never became valid; rebuilding from the log".into(),
            ));
            pager.reset_damaged()?;
            stats.fsyncs.incr();
        }
        let (new_seq, last_rev) = recovery::replay(&mut mem, &scan, seq, &mut report)?;
        if new_seq > seq {
            seq = new_seq;
            revision = last_rev;
        }

        // Repair: drop the damaged/uncommitted tail so new appends start
        // on a committed prefix. (Replay is idempotent regardless — a
        // second open sees the same committed frames — but appending
        // after garbage would not be.)
        let actual_len = wal_file.len()?;
        let mut wal = WalWriter::new(wal_file, scan.committed_len);
        if actual_len > scan.committed_len {
            report.wal_tail_discarded = actual_len - scan.committed_len;
            wal.truncate_to(scan.committed_len)?;
            wal.sync()?;
            stats.fsyncs.incr();
        }

        stats.recovery_replayed.add(report.commits_replayed);
        stats.recovery_anomalies.add(report.anomalies.len() as u64);
        tracer.mark("db.recovery.commits", report.commits_replayed);

        let journal = Some(Journal { wal, pager, catalog_pages, stats, tracer });
        Ok(DurableDatabase { mem, journal, seq, revision, txn: None, report })
    }

    /// True when writes are journaled (the engine came from
    /// [`open`](Self::open)).
    pub fn is_journaled(&self) -> bool {
        self.journal.is_some()
    }

    /// What open-time recovery found and did (nothing, without a
    /// journal).
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.report
    }

    /// Read-only view of the in-memory engine: `query_ref`,
    /// `lookup_eq`, and friends.
    pub fn reader(&self) -> &Database {
        &self.mem
    }

    /// Storage telemetry; all zeros without a journal.
    pub fn stats(&self) -> DurableStats {
        self.journal.as_ref().map_or_else(DurableStats::default, |j| j.stats.clone())
    }

    /// Rebind storage *and* SQL counters to an external registry.
    pub fn bind_stats_registry(&mut self, registry: &Registry) {
        if let Some(journal) = &mut self.journal {
            journal.stats = DurableStats::bound_to(registry.clone());
        }
        self.mem.bind_stats_registry(registry);
    }

    /// Last journaled transaction sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The mutation counter; its current value rides the next commit
    /// record.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Move the revision forward by one. The engine never does this
    /// itself: what counts as a mutation is the caller's contract.
    pub fn bump_revision(&mut self) {
        self.revision += 1;
    }

    /// True while an explicit transaction is open.
    pub fn in_txn(&self) -> bool {
        self.txn.is_some()
    }

    /// Open an explicit transaction. Statements executed until
    /// [`commit`](Self::commit) apply (and become durable) together;
    /// [`rollback`](Self::rollback) (or a crash) undoes all of them.
    pub fn begin(&mut self) -> DurableResult<()> {
        if self.txn.is_some() {
            return Err(DurableError::Txn("transaction already open".into()));
        }
        let seq = self.seq + 1;
        let mut wal_start = 0;
        if let Some(journal) = &mut self.journal {
            wal_start = journal.wal.len();
            journal.append(&WalRecord::Begin { seq })?;
        }
        self.txn = Some(TxnState { savepoint: self.mem.savepoint(), wal_start, seq });
        Ok(())
    }

    /// Take the open transaction, counting what its undo log held.
    fn take_txn(&mut self) -> DurableResult<TxnState> {
        let txn = self.txn.take().ok_or_else(|| DurableError::Txn("no open transaction".into()))?;
        if let Some(journal) = &self.journal {
            journal.stats.undo_rows.add(self.mem.undo_rows());
        }
        Ok(txn)
    }

    /// Commit the open transaction: write the commit record and fsync.
    pub fn commit(&mut self) -> DurableResult<()> {
        let txn = self.take_txn()?;
        let _span = self.journal.as_ref().map(|j| j.tracer.span("db.commit"));
        self.mem.release(txn.savepoint);
        // On append/fsync failure durability is unknown; keep the memory
        // image (the statements did execute) and surface the error — the
        // next open() decides from the bytes on disk.
        self.commit_frames(txn.seq)
    }

    /// Journal the commit record of transaction `seq`, fsync, and fold
    /// the log into a snapshot once it has grown past the threshold.
    fn commit_frames(&mut self, seq: u64) -> DurableResult<()> {
        let Some(journal) = &mut self.journal else { return Ok(()) };
        journal.append(&WalRecord::Commit {
            seq,
            revision: self.revision,
            schema_gen: self.mem.schema_generation(),
        })?;
        journal.wal.sync()?;
        journal.stats.fsyncs.incr();
        journal.stats.commits.incr();
        self.seq = seq;
        if journal.wal.len() >= CHECKPOINT_WAL_BYTES {
            match self.checkpoint() {
                // The commit is durable whether or not the log can be
                // folded; a database the pages cannot hold stays on it.
                Err(DurableError::Sql(_)) => self.stats().checkpoints_refused.incr(),
                done => done?,
            }
        }
        Ok(())
    }

    /// Abandon the open transaction: undo its statements in memory (see
    /// [`Database::rollback_to`], which also clears the plan cache — that
    /// is what makes "a cached plan serves rolled-back rows" impossible)
    /// and truncate the WAL back to its start.
    pub fn rollback(&mut self) -> DurableResult<()> {
        let txn = self.take_txn()?;
        self.mem.rollback_to(txn.savepoint);
        let Some(journal) = &mut self.journal else { return Ok(()) };
        journal.wal.truncate_to(txn.wal_start)?;
        journal.wal.sync()?;
        journal.stats.fsyncs.incr();
        Ok(())
    }

    /// Execute one statement. Outside a transaction a journaled write
    /// auto-commits (Begin + Stmt + Commit + fsync); inside one it only
    /// journals the statement. Failed statements have no effect anywhere
    /// — memory, journal, or disk.
    pub fn execute(&mut self, sql: &str) -> DurableResult<ExecOutcome> {
        let Some(journal) = &mut self.journal else { return Ok(self.mem.execute(sql)?) };
        // Writes must not slip through the read-only classification:
        // run first, under a savepoint, and journal on success. The
        // in-memory engine guarantees failed statements change nothing
        // (statement atomicity), so those, like reads, leave nothing to
        // undo.
        let auto_commit = self.txn.is_none();
        let before = self.mem.savepoint();
        let outcome = match self.mem.execute(sql) {
            Ok(outcome) if written(&outcome) => outcome,
            other => {
                self.mem.release(before);
                return Ok(other?);
            }
        };
        let seq = self.seq + 1;
        let _span = auto_commit.then(|| journal.tracer.span("db.commit"));
        let begun = if auto_commit { journal.append(&WalRecord::Begin { seq }) } else { Ok(()) };
        if let Err(e) = begun.and_then(|()| journal.append(&WalRecord::Stmt { sql: sql.into() })) {
            // Not journaled, so it must not have happened.
            self.mem.rollback_to(before);
            return Err(e);
        }
        self.mem.release(before);
        if auto_commit {
            // As in `commit`: from here on durability is unknown on
            // failure, so the memory image stays.
            self.commit_frames(seq)?;
        }
        Ok(outcome)
    }

    /// Fold what has changed since the last checkpoint into the
    /// snapshot and truncate the WAL. Safe at any commit boundary;
    /// refuses inside a transaction. Fails with [`DurableError::Sql`],
    /// having changed nothing, when a row is too long for a page.
    /// Nothing to fold without a journal.
    pub fn checkpoint(&mut self) -> DurableResult<()> {
        if self.txn.is_some() {
            return Err(DurableError::Txn("cannot checkpoint inside a transaction".into()));
        }
        let Some(journal) = &mut self.journal else { return Ok(()) };
        let _span = journal.tracer.span("db.checkpoint");
        let images = self.mem.images.as_ref().expect("a journaled engine keeps images");
        let mut heap = journal.pager.writer();
        let mut released = journal.catalog_pages.clone();
        for (name, image) in images {
            if self.mem.table(name).is_none() {
                released.extend(image.pages());
            }
        }
        let (mut catalog, mut repacked) = (Vec::new(), Vec::new());
        let unwritten = TreeImage::default();
        // `table_names` is sorted; the catalog inherits that order.
        for name in self.mem.table_names() {
            let table = self.mem.table(name).expect("listed table");
            let image = images.get(name).unwrap_or(&unwritten);
            // Tree: rowid (current position) → encoded row.
            let tree = image.repack(
                table.len() as u64,
                &mut |rowid, value| {
                    codec::put_row(value, &table.rows()[rowid as usize]);
                    if value.len() > btree::MAX_VALUE {
                        return Err(DurableError::Sql(SqlError::Unsupported(format!(
                            "row of {} bytes in table {name} exceeds the one-page checkpoint limit",
                            value.len()
                        ))));
                    }
                    Ok(())
                },
                &mut |page| Ok(heap.put(page)?),
            )?;
            catalog.push(CatalogTable {
                name: name.to_string(),
                columns: table.columns().iter().map(|c| (c.name.clone(), c.ty)).collect(),
                rows: table.len() as u64,
                root: tree.as_ref().map_or_else(|| image.root(), |tree| tree.root),
                warm_indexes: table.indexed_column_ids().into_iter().map(|c| c as u32).collect(),
                stats_warm: table.stats_if_warm().is_some(),
            });
            released.extend(tree.iter().flat_map(|tree| &tree.released));
            repacked.push((name.to_string(), tree));
        }
        // The catalog always encodes at least its table count, so even a
        // zero-table database gets a page and the header points at
        // something readable.
        let catalog = recovery::encode_catalog(&catalog);
        let catalog_pages = heap.put_chain(&catalog)?;
        let pages = heap.written();
        heap.flip(
            released,
            catalog_pages[0],
            catalog.len() as u32,
            self.seq,
            self.revision,
            self.mem.schema_generation(),
        )?;
        journal.stats.fsyncs.add(2);
        // The new header is the recovery target: the images follow it,
        // before anything else can fail.
        journal.catalog_pages = catalog_pages;
        let images = self.mem.images.as_mut().expect("a journaled engine keeps images");
        let mut old = std::mem::take(images);
        images.extend(repacked.into_iter().map(|(name, tree)| {
            let mut image = old.remove(&name).unwrap_or_default();
            image.apply(tree);
            (name, image)
        }));
        if journal.pager.trim()? {
            journal.stats.fsyncs.incr();
        }
        // The WAL's content is now folded into the snapshot.
        journal.wal.truncate_to(0)?;
        journal.wal.sync()?;
        journal.stats.fsyncs.incr();
        journal.stats.checkpoints.incr();
        journal.stats.checkpoint_pages.add(pages);
        Ok(())
    }

    /// A fingerprint of the full logical state: every table's schema and
    /// rows plus `(seq, revision, schema generation)`. Two engines with
    /// equal fingerprints answer every query identically — the equality
    /// the crash harness checks across recoveries.
    pub fn state_fingerprint(&self) -> u64 {
        fingerprint_database(&self.mem, self.seq, self.revision)
    }
}

fn written(outcome: &ExecOutcome) -> bool {
    matches!(outcome, ExecOutcome::Written { .. })
}

/// Canonical-state fingerprint (see
/// [`DurableDatabase::state_fingerprint`]).
pub fn fingerprint_database(db: &Database, seq: u64, revision: u64) -> u64 {
    let mut bytes = Vec::new();
    codec::put_u64(&mut bytes, seq);
    codec::put_u64(&mut bytes, revision);
    codec::put_u64(&mut bytes, db.schema_generation());
    for name in db.table_names() {
        let t = db.table(name).expect("listed table");
        codec::put_str(&mut bytes, name);
        for c in t.columns() {
            codec::put_str(&mut bytes, &c.name);
            codec::put_u8(&mut bytes, matches!(c.ty, crate::ColumnType::Text) as u8);
        }
        for row in t.rows() {
            codec::put_row(&mut bytes, row);
        }
    }
    codec::fnv1a(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemVfs;
    use crate::Value;

    fn mkdb(vfs: &MemVfs) -> DurableDatabase {
        DurableDatabase::open(vfs).unwrap()
    }

    fn wal_len(db: &DurableDatabase) -> u64 {
        db.journal.as_ref().expect("opened on a vfs").wal.len()
    }

    #[test]
    fn survives_reopen() {
        let vfs = MemVfs::new();
        let mut db = mkdb(&vfs);
        db.execute("create table nodes (id int, name text)").unwrap();
        db.execute("insert into nodes values (1, 'frontend-0'), (2, 'compute-0-0')").unwrap();
        let fp = db.state_fingerprint();
        drop(db);
        let db2 = mkdb(&vfs);
        assert_eq!(db2.state_fingerprint(), fp);
        assert_eq!(db2.recovery_report().commits_replayed, 2);
        let r = db2.reader().query_ref("select name from nodes where id = 2").unwrap();
        assert_eq!(r.rows[0][0].as_text(), Some("compute-0-0"));
    }

    #[test]
    fn checkpoint_then_reopen_skips_replay() {
        let vfs = MemVfs::new();
        let mut db = mkdb(&vfs);
        db.execute("create table t (x int)").unwrap();
        for i in 0..10 {
            db.execute(&format!("insert into t values ({i})")).unwrap();
        }
        db.checkpoint().unwrap();
        db.execute("insert into t values (99)").unwrap();
        let fp = db.state_fingerprint();
        drop(db);
        let db2 = mkdb(&vfs);
        assert_eq!(db2.state_fingerprint(), fp);
        assert_eq!(db2.recovery_report().commits_replayed, 1, "only the post-checkpoint commit");
        assert_eq!(db2.reader().table("t").unwrap().len(), 11);
    }

    #[test]
    fn secondary_indexes_survive_and_verify() {
        let vfs = MemVfs::new();
        let mut db = mkdb(&vfs);
        db.execute("create table nodes (id int, ip text)").unwrap();
        db.execute("insert into nodes values (1, '10.0.0.1'), (2, '10.0.0.2')").unwrap();
        // Warm an index so the checkpoint lists the column as warm.
        db.reader().lookup_eq("nodes", "ip", &Value::Text("10.0.0.2".into())).unwrap();
        db.checkpoint().unwrap();
        drop(db);
        let db2 = mkdb(&vfs);
        // The recovered table already carries the warm index.
        let nodes = db2.reader().table("nodes").unwrap();
        assert_eq!(nodes.indexed_column_ids(), [1]);
        assert_eq!(nodes.indexed_columns(), 1);
    }

    #[test]
    fn rollback_restores_state_and_truncates_wal() {
        let vfs = MemVfs::new();
        let mut db = mkdb(&vfs);
        db.execute("create table t (x int)").unwrap();
        db.execute("insert into t values (1)").unwrap();
        let fp = db.state_fingerprint();
        let before = wal_len(&db);
        db.begin().unwrap();
        db.execute("insert into t values (2)").unwrap();
        db.execute("create table ghost (y int)").unwrap();
        assert_eq!(db.reader().table("t").unwrap().len(), 2);
        db.rollback().unwrap();
        assert_eq!(db.state_fingerprint(), fp);
        assert_eq!(wal_len(&db), before);
        assert!(db.reader().table("ghost").is_none());
        // And a reopen agrees: the rolled-back work never existed.
        drop(db);
        assert_eq!(mkdb(&vfs).state_fingerprint(), fp);
    }

    #[test]
    fn failed_statements_are_not_journaled() {
        let vfs = MemVfs::new();
        let mut db = mkdb(&vfs);
        db.execute("create table t (x int)").unwrap();
        let appends = db.stats().wal_appends();
        assert!(db.execute("insert into t values (1, 2)").is_err());
        assert!(db.execute("insert into missing values (1)").is_err());
        // Multi-row insert with a bad row: statement atomicity means no
        // effect, so nothing may reach the journal either.
        assert!(db.execute("insert into t values (1), ('x')").is_err());
        assert_eq!(db.stats().wal_appends(), appends);
        assert_eq!(db.reader().table("t").unwrap().len(), 0);
    }

    #[test]
    fn reads_do_not_touch_the_wal() {
        let vfs = MemVfs::new();
        let mut db = mkdb(&vfs);
        db.execute("create table t (x int)").unwrap();
        let appends = db.stats().wal_appends();
        db.execute("select * from t").unwrap();
        assert_eq!(db.stats().wal_appends(), appends);
    }

    #[test]
    fn wal_growth_triggers_automatic_checkpoint() {
        let vfs = MemVfs::new();
        let mut db = mkdb(&vfs);
        db.execute("create table t (x int, pad text)").unwrap();
        let pad = "p".repeat(512);
        for i in 0..1000 {
            db.execute(&format!("insert into t values ({i}, '{pad}')")).unwrap();
            if db.stats().checkpoints() > 0 {
                break;
            }
        }
        assert!(db.stats().checkpoints() > 0, "WAL never hit the checkpoint threshold");
        assert!(wal_len(&db) < CHECKPOINT_WAL_BYTES);
        let fp = db.state_fingerprint();
        drop(db);
        assert_eq!(mkdb(&vfs).state_fingerprint(), fp);
    }

    #[test]
    fn revision_and_schema_gen_survive_recovery() {
        let vfs = MemVfs::new();
        let mut db = mkdb(&vfs);
        db.bump_revision();
        db.execute("create table t (x int)").unwrap();
        db.bump_revision();
        db.execute("insert into t values (1)").unwrap();
        let gen = db.reader().schema_generation();
        drop(db);
        let db2 = mkdb(&vfs);
        assert_eq!(db2.revision(), 2);
        assert_eq!(db2.reader().schema_generation(), gen);
        // Also across a checkpoint boundary.
        let mut db2 = db2;
        db2.checkpoint().unwrap();
        drop(db2);
        let db3 = mkdb(&vfs);
        assert_eq!(db3.revision(), 2);
        assert_eq!(db3.reader().schema_generation(), gen);
    }
}
