//! Crash recovery: typed anomaly classification, snapshot loading, and
//! WAL replay.
//!
//! Recovery is a pure function of the bytes on disk: open the data
//! file, pick the live snapshot (highest valid header generation),
//! rebuild the in-memory tables from its leaf lists — noting where every
//! page of them lies, which is what the next checkpoint reuses and what
//! tells the pager which pages are free — then re-execute every WAL
//! transaction with `seq > checkpoint_seq`. Damage in the WAL tail
//! is *expected* (that is what a crash leaves behind) and is reported as
//! typed anomalies rather than errors; damage to the snapshot region or
//! replay divergence is a hard error, because it means the committed
//! prefix itself cannot be reconstructed.

use crate::codec::{self, Reader};
use crate::leaves;
use crate::pager::{self, Pager};
use crate::table::{ColumnType, Table};
use crate::wal::WalScan;
use crate::Database;

/// What recovery found wrong with the bytes it read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryError {
    /// A frame or page was only partially written (truncated tail, bad
    /// magic, length running past end of file).
    TornWrite(String),
    /// Bytes are structurally present but fail their CRC (bit flips,
    /// torn writes that happened to preserve lengths).
    ChecksumMismatch(String),
    /// A transaction reached the log but never committed; its statements
    /// are discarded.
    PartialCommit(String),
    /// An internal inconsistency that valid checksums cannot explain
    /// (malformed catalog, replay divergence) — an engine bug or
    /// deliberate tampering, never an expected crash outcome.
    Corrupt(String),
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::TornWrite(m) => write!(f, "torn write: {m}"),
            RecoveryError::ChecksumMismatch(m) => write!(f, "checksum mismatch: {m}"),
            RecoveryError::PartialCommit(m) => write!(f, "partial commit: {m}"),
            RecoveryError::Corrupt(m) => write!(f, "corrupt: {m}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// What recovery did, kept by the opened engine for inspection (and
/// asserted on heavily by the crash-point sweep).
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Tail anomalies, in the order encountered. Non-empty after most
    /// crashes; empty after a clean shutdown.
    pub anomalies: Vec<RecoveryError>,
    /// Committed transactions re-executed from the WAL.
    pub commits_replayed: u64,
    /// Commits skipped because the snapshot already contained them
    /// (duplicate commit records, checkpoint/truncate races).
    pub commits_skipped: u64,
    /// `checkpoint_seq` of the snapshot recovery started from (0 when
    /// starting fresh).
    pub checkpoint_seq: u64,
    /// Bytes of damaged/uncommitted WAL tail discarded by the repair
    /// truncation.
    pub wal_tail_discarded: u64,
}

impl RecoveryReport {
    /// Count anomalies of each kind: `(torn, checksum, partial)`.
    pub fn anomaly_counts(&self) -> (u64, u64, u64) {
        let mut c = (0, 0, 0);
        for a in &self.anomalies {
            match a {
                RecoveryError::TornWrite(_) => c.0 += 1,
                RecoveryError::ChecksumMismatch(_) => c.1 += 1,
                RecoveryError::PartialCommit(_) | RecoveryError::Corrupt(_) => c.2 += 1,
            }
        }
        c
    }
}

/// The catalog: one entry per table, written at checkpoint time.
pub(crate) struct CatalogTable {
    pub name: String,
    pub columns: Vec<(String, ColumnType)>,
    pub rows: u64,
    /// The table's list pages, in order.
    pub lists: Vec<u32>,
    /// Columns that had a warm hash index at checkpoint time, and
    /// whether the table had warm planner statistics. Both are derived
    /// state — rebuilt from the recovered rows — so only that they were
    /// warm is persisted: recovery re-warms them, and the first kickstart
    /// burst and planning pass after a restart cost what they did before
    /// the crash.
    pub warm_indexes: Vec<u32>,
    pub stats_warm: bool,
}

pub(crate) fn encode_catalog(tables: &[CatalogTable]) -> Vec<u8> {
    let mut out = Vec::new();
    codec::put_u32(&mut out, tables.len() as u32);
    for t in tables {
        codec::put_str(&mut out, &t.name);
        codec::put_u32(&mut out, t.columns.len() as u32);
        for (name, ty) in &t.columns {
            codec::put_str(&mut out, name);
            codec::put_u8(
                &mut out,
                match ty {
                    ColumnType::Int => 0,
                    ColumnType::Text => 1,
                },
            );
        }
        codec::put_u64(&mut out, t.rows);
        codec::put_u32(&mut out, t.lists.len() as u32);
        for list in &t.lists {
            codec::put_u32(&mut out, *list);
        }
        codec::put_u32(&mut out, t.warm_indexes.len() as u32);
        for col in &t.warm_indexes {
            codec::put_u32(&mut out, *col);
        }
        codec::put_u8(&mut out, u8::from(t.stats_warm));
    }
    out
}

fn decode_catalog(bytes: &[u8]) -> Result<Vec<CatalogTable>, RecoveryError> {
    let bad = |m: String| RecoveryError::Corrupt(format!("catalog: {m}"));
    let mut r = Reader::new(bytes);
    let mut tables = Vec::new();
    let n = r.u32().map_err(|e| bad(e.0))?;
    for _ in 0..n {
        let name = r.str().map_err(|e| bad(e.0))?;
        let ncols = r.u32().map_err(|e| bad(e.0))?;
        let mut columns = Vec::new();
        for _ in 0..ncols {
            let cname = r.str().map_err(|e| bad(e.0))?;
            let ty = match r.u8().map_err(|e| bad(e.0))? {
                0 => ColumnType::Int,
                1 => ColumnType::Text,
                t => return Err(bad(format!("unknown column type {t}"))),
            };
            columns.push((cname, ty));
        }
        let rows = r.u64().map_err(|e| bad(e.0))?;
        let nlists = r.u32().map_err(|e| bad(e.0))?;
        let mut lists = Vec::new();
        for _ in 0..nlists {
            lists.push(r.u32().map_err(|e| bad(e.0))?);
        }
        let nix = r.u32().map_err(|e| bad(e.0))?;
        let mut warm_indexes = Vec::new();
        for _ in 0..nix {
            warm_indexes.push(r.u32().map_err(|e| bad(e.0))?);
        }
        let stats_warm = match r.u8().map_err(|e| bad(e.0))? {
            0 => false,
            1 => true,
            v => return Err(bad(format!("bad stats-warm flag {v}"))),
        };
        tables.push(CatalogTable { name, columns, rows, lists, warm_indexes, stats_warm });
    }
    Ok(tables)
}

/// Rebuild the in-memory database from the live snapshot: the tables,
/// the image of each one's pages (the database tracks changes against
/// them from here on) and the schema generation the header recorded.
/// Every page reached is read exactly once — one reached twice, or one
/// past the header's page count, is corruption — and the pager learns
/// which pages that left free. Returns the database and the catalog's
/// pages.
pub(crate) fn load_snapshot(pager: &mut Pager) -> Result<(Database, Vec<u32>), RecoveryError> {
    let meta = *pager.live().expect("a live snapshot to load");
    let mut reached = vec![false; meta.pages as usize];
    let reader = &*pager;
    let mut read = |page: u32| {
        let payload = reader.read_page(page)?;
        if std::mem::replace(&mut reached[page as usize], true) {
            return Err(RecoveryError::Corrupt(format!("page {page} is reached twice")));
        }
        Ok(payload)
    };
    let (catalog, catalog_pages) =
        pager::read_chain(&mut read, meta.catalog_page, meta.catalog_len as usize)?;
    let mut db = Database::new();
    let mut images = std::collections::BTreeMap::new();
    for entry in decode_catalog(&catalog)? {
        let mut table = Table::new(entry.name.clone(), entry.columns.clone());
        let image = leaves::load(&mut read, &entry.lists, &mut |rowid, value| {
            let row = Reader::new(value).row().map_err(|e| {
                RecoveryError::Corrupt(format!("table {} row {rowid}: {}", entry.name, e.0))
            })?;
            // Rows were coerced before the checkpoint; re-inserting them
            // through the public path re-validates for free.
            table.insert_row(row).map_err(|e| {
                RecoveryError::Corrupt(format!(
                    "table {} row {rowid} rejected on reload: {e}",
                    entry.name
                ))
            })
        })?;
        if table.len() as u64 != entry.rows {
            return Err(RecoveryError::Corrupt(format!(
                "table {}: catalog claims {} rows, its leaves held {}",
                entry.name,
                entry.rows,
                table.len()
            )));
        }
        // Re-warm what was warm: hash indexes, so a recovered frontend
        // answers its first kickstart burst at full speed, and planner
        // statistics. Both are pure functions of the recovered rows, so
        // rebuilding here is consistent whatever instant the crash hit.
        for &col in &entry.warm_indexes {
            if col as usize >= table.columns().len() {
                return Err(RecoveryError::Corrupt(format!(
                    "table {}: index on out-of-range column {col}",
                    entry.name
                )));
            }
            let _ = table.eq_index(col as usize);
        }
        if entry.stats_warm {
            let _ = table.stats();
        }
        images.insert(table.name().to_string(), image);
        db.add_table(table).map_err(|e| {
            RecoveryError::Corrupt(format!("duplicate table {} in catalog: {e}", entry.name))
        })?;
    }
    db.set_schema_generation(meta.schema_gen);
    db.images = Some(images);
    pager.free_unreached(&reached);
    Ok((db, catalog_pages))
}

/// Re-execute committed WAL transactions on top of `db`. Transactions at
/// or below `checkpoint_seq` — and duplicates — are skipped. Returns the
/// last applied `(seq, revision)` and updates `report`.
pub(crate) fn replay(
    db: &mut Database,
    scan: &WalScan,
    checkpoint_seq: u64,
    report: &mut RecoveryReport,
) -> Result<(u64, u64), RecoveryError> {
    let mut seq = checkpoint_seq;
    let mut revision = 0u64;
    for txn in &scan.txns {
        if txn.seq <= seq {
            report.commits_skipped += 1;
            continue;
        }
        if txn.seq != seq + 1 {
            return Err(RecoveryError::Corrupt(format!(
                "commit sequence jumped from {seq} to {}",
                txn.seq
            )));
        }
        for sql in &txn.stmts {
            db.execute(sql).map_err(|e| {
                RecoveryError::Corrupt(format!(
                    "replay of committed statement failed ({sql:?}): {e}"
                ))
            })?;
        }
        // Cross-check: the journaled schema generation must match what
        // replay produced, or the log does not describe this database.
        if db.schema_generation() != txn.schema_gen {
            return Err(RecoveryError::Corrupt(format!(
                "schema generation diverged on replay of commit {}: journal says {}, replay produced {}",
                txn.seq,
                txn.schema_gen,
                db.schema_generation()
            )));
        }
        seq = txn.seq;
        revision = txn.revision;
        report.commits_replayed += 1;
    }
    Ok((seq, revision))
}
