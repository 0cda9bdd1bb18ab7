//! The write-ahead log: statement-level (logical) journaling.
//!
//! The cluster database is a MySQL stand-in, and MySQL's own replication
//! journal — the binlog the Rocks frontend would archive — is statement
//! based. The engine is deterministic, every `ClusterDb` write is issued
//! as SQL text, and replaying that text byte-for-byte reproduces the
//! tables, so the WAL records statements rather than pages. (Physical
//! page images appear on disk only at checkpoint time; see `pager`.)
//!
//! # Frame format
//!
//! ```text
//! frame := [magic u8 = 0xA7] [kind u8] [len u32 le] [crc u32 le] [payload: len bytes]
//! crc   := crc32(kind ‖ len ‖ payload)
//! ```
//!
//! The CRC is computed in place: [`encode_frame`] writes header and
//! payload into the one buffer it returns and checksums `kind ‖ len`,
//! then the payload, through the chained form of `crc32`; [`scan_bytes`]
//! checks each frame the same way, without copying it. Chaining yields
//! the CRC of the concatenation, so the format is unchanged.
//!
//! Kinds: `1` Begin `{seq}`, `2` Stmt `{sql}`, `3` Commit
//! `{seq, revision, schema_gen}`. A transaction is durable iff its
//! Commit frame is fully on disk with a valid CRC *and* the log was
//! synced — the engine syncs exactly once per commit, after the Commit
//! frame.

use crate::codec::{self, Reader};
use crate::disk::{crc32, crc32_extend, DiskFile, DiskResult};
use crate::recovery::RecoveryError;

const FRAME_MAGIC: u8 = 0xA7;
const FRAME_HEADER: usize = 1 + 1 + 4 + 4;

const KIND_BEGIN: u8 = 1;
const KIND_STMT: u8 = 2;
const KIND_COMMIT: u8 = 3;

/// One journal record, borrowing what it logs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord<'a> {
    /// A transaction opened.
    Begin {
        /// Its commit sequence number (assigned at begin time).
        seq: u64,
    },
    /// One successfully executed statement.
    Stmt {
        /// The SQL text, exactly as executed.
        sql: &'a str,
    },
    /// The transaction's durability point.
    Commit {
        /// Commit sequence number (matches the Begin).
        seq: u64,
        /// `ClusterDb` revision counter at commit.
        revision: u64,
        /// `Database` schema generation after the transaction.
        schema_gen: u64,
    },
}

/// Encode one frame into one buffer.
pub fn encode_frame(rec: &WalRecord<'_>) -> Vec<u8> {
    let (kind, len) = match rec {
        WalRecord::Begin { .. } => (KIND_BEGIN, 8),
        WalRecord::Stmt { sql } => (KIND_STMT, 4 + sql.len()),
        WalRecord::Commit { .. } => (KIND_COMMIT, 24),
    };
    let mut out = Vec::with_capacity(FRAME_HEADER + len);
    out.extend_from_slice(&[FRAME_MAGIC, kind]);
    codec::put_u32(&mut out, len as u32);
    codec::put_u32(&mut out, 0); // the CRC, once the payload is in
    match *rec {
        WalRecord::Begin { seq } => codec::put_u64(&mut out, seq),
        WalRecord::Stmt { sql } => codec::put_str(&mut out, sql),
        WalRecord::Commit { seq, revision, schema_gen } => {
            codec::put_u64(&mut out, seq);
            codec::put_u64(&mut out, revision);
            codec::put_u64(&mut out, schema_gen);
        }
    }
    debug_assert_eq!(out.len(), FRAME_HEADER + len);
    let crc = frame_crc(&out);
    out[6..FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
    out
}

/// `crc32(kind ‖ len ‖ payload)` of a whole frame, read where it holds
/// them: the CRC field between `len` and the payload is skipped.
fn frame_crc(frame: &[u8]) -> u32 {
    crc32_extend(crc32(&frame[1..6]), &frame[FRAME_HEADER..])
}

/// Appends frames to the log file. Nothing is durable until
/// [`sync`](Self::sync).
pub struct WalWriter {
    file: Box<dyn DiskFile>,
    len: u64,
}

impl std::fmt::Debug for WalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalWriter").field("len", &self.len).finish()
    }
}

impl WalWriter {
    /// Wrap an open log file whose valid length is `len` (recovery
    /// truncates the file to the committed prefix before handing it over).
    pub fn new(file: Box<dyn DiskFile>, len: u64) -> Self {
        WalWriter { file, len }
    }

    /// Current log length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the log holds no frames.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one frame (buffered). Returns the encoded size.
    pub fn append(&mut self, rec: &WalRecord<'_>) -> DiskResult<u64> {
        let frame = encode_frame(rec);
        self.file.write_at(self.len, &frame)?;
        self.len += frame.len() as u64;
        Ok(frame.len() as u64)
    }

    /// Make everything appended so far durable.
    pub fn sync(&mut self) -> DiskResult<()> {
        self.file.sync()
    }

    /// Discard the log tail beyond `len` (rollback and post-checkpoint
    /// truncation).
    pub fn truncate_to(&mut self, len: u64) -> DiskResult<()> {
        self.file.truncate(len)?;
        self.len = len;
        Ok(())
    }
}

/// One committed transaction as reconstructed by [`scan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommittedTxn {
    /// Commit sequence number.
    pub seq: u64,
    /// Revision recorded at commit.
    pub revision: u64,
    /// Schema generation recorded at commit.
    pub schema_gen: u64,
    /// The statements, in execution order.
    pub stmts: Vec<String>,
}

/// The result of scanning a log.
#[derive(Debug, Clone, Default)]
pub struct WalScan {
    /// Fully committed transactions, in log order. May include
    /// duplicates or stale sequence numbers (a crash between checkpoint
    /// header flip and log truncation leaves old commits behind); replay
    /// deduplicates by `seq`.
    pub txns: Vec<CommittedTxn>,
    /// Byte offset just past the last structurally valid *committed*
    /// frame: the length the log is repaired to before new appends.
    pub committed_len: u64,
    /// Everything wrong with the tail, in the order encountered. A
    /// non-empty list is the normal outcome of recovering from a crash.
    pub anomalies: Vec<RecoveryError>,
}

/// Scan a log file: decode frames until the first structural anomaly,
/// group them into committed transactions, and report what the tail
/// looked like. The scan never fails on tail damage — damage is *data*
/// (the recovered state is simply the committed prefix); it only errors
/// on I/O problems reading the file.
pub fn scan(file: &dyn DiskFile) -> DiskResult<WalScan> {
    let len = file.len()? as usize;
    let mut bytes = vec![0u8; len];
    if len > 0 {
        file.read_exact_at(0, &mut bytes)?;
    }
    Ok(scan_bytes(&bytes))
}

/// [`scan`] over an in-memory image (exposed for the edge-case tests,
/// which hand-craft log bytes).
pub fn scan_bytes(bytes: &[u8]) -> WalScan {
    let mut out = WalScan::default();
    let mut pos = 0usize;
    // The transaction currently being assembled: (seq, stmts, start_off).
    let mut open: Option<(u64, Vec<String>)> = None;

    while pos < bytes.len() {
        let remaining = bytes.len() - pos;
        if remaining < FRAME_HEADER {
            out.anomalies.push(RecoveryError::TornWrite(format!(
                "{remaining}-byte fragment at offset {pos} is shorter than a frame header"
            )));
            break;
        }
        if bytes[pos] != FRAME_MAGIC {
            out.anomalies.push(RecoveryError::TornWrite(format!(
                "bad frame magic {:#04x} at offset {pos}",
                bytes[pos]
            )));
            break;
        }
        let kind = bytes[pos + 1];
        let plen =
            u32::from_le_bytes(bytes[pos + 2..pos + 6].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 6..pos + 10].try_into().expect("4 bytes"));
        if remaining < FRAME_HEADER + plen {
            out.anomalies.push(RecoveryError::TornWrite(format!(
                "frame at offset {pos} claims {plen} payload bytes, {} remain",
                remaining - FRAME_HEADER
            )));
            break;
        }
        let frame_end = pos + FRAME_HEADER + plen;
        if frame_crc(&bytes[pos..frame_end]) != crc {
            out.anomalies.push(RecoveryError::ChecksumMismatch(format!(
                "frame at offset {pos} fails its CRC"
            )));
            break;
        }
        let mut r = Reader::new(&bytes[pos + FRAME_HEADER..frame_end]);
        match kind {
            KIND_BEGIN => {
                let Ok(seq) = r.u64() else {
                    out.anomalies.push(RecoveryError::ChecksumMismatch(format!(
                        "begin frame at offset {pos} has a malformed payload"
                    )));
                    break;
                };
                if let Some((orphan_seq, _)) = open.take() {
                    out.anomalies.push(RecoveryError::PartialCommit(format!(
                        "transaction {orphan_seq} was never committed (new begin at offset {pos})"
                    )));
                }
                open = Some((seq, Vec::new()));
            }
            KIND_STMT => {
                let Ok(sql) = r.str() else {
                    out.anomalies.push(RecoveryError::ChecksumMismatch(format!(
                        "stmt frame at offset {pos} has a malformed payload"
                    )));
                    break;
                };
                match &mut open {
                    Some((_, stmts)) => stmts.push(sql),
                    None => {
                        out.anomalies.push(RecoveryError::PartialCommit(format!(
                            "statement outside any transaction at offset {pos}"
                        )));
                        // Structurally valid but unattributable; stop to
                        // stay on a committed prefix.
                        return out;
                    }
                }
            }
            KIND_COMMIT => {
                let parsed =
                    (|| Ok::<_, crate::codec::CodecError>((r.u64()?, r.u64()?, r.u64()?)))();
                let Ok((seq, revision, schema_gen)) = parsed else {
                    out.anomalies.push(RecoveryError::ChecksumMismatch(format!(
                        "commit frame at offset {pos} has a malformed payload"
                    )));
                    break;
                };
                let stmts = match open.take() {
                    Some((begin_seq, stmts)) if begin_seq == seq => stmts,
                    Some((begin_seq, _)) => {
                        out.anomalies.push(RecoveryError::PartialCommit(format!(
                            "commit {seq} at offset {pos} closes transaction {begin_seq}"
                        )));
                        break;
                    }
                    // A commit with no open transaction: a duplicated
                    // commit record. Deliver it empty; replay's seq check
                    // makes it a no-op.
                    None => Vec::new(),
                };
                out.txns.push(CommittedTxn { seq, revision, schema_gen, stmts });
                out.committed_len = frame_end as u64;
            }
            other => {
                out.anomalies.push(RecoveryError::TornWrite(format!(
                    "unknown frame kind {other} at offset {pos}"
                )));
                break;
            }
        }
        pos = frame_end;
    }

    if let Some((seq, stmts)) = open {
        out.anomalies.push(RecoveryError::PartialCommit(format!(
            "transaction {seq} has {} statement(s) but no commit record",
            stmts.len()
        )));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_txn(seq: u64) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend(encode_frame(&WalRecord::Begin { seq }));
        bytes.extend(encode_frame(&WalRecord::Stmt {
            sql: &format!("insert into t values ({seq})"),
        }));
        bytes.extend(encode_frame(&WalRecord::Commit { seq, revision: seq * 10, schema_gen: 1 }));
        bytes
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// One frame of each kind, byte for byte as the engine wrote them
    /// when the CRC input was still copied into a buffer of its own.
    #[test]
    fn frame_bytes_are_pinned() {
        let begin = encode_frame(&WalRecord::Begin { seq: 7 });
        assert_eq!(hex(&begin), "a70108000000e0e02bde0700000000000000");
        let sql = "insert into nodes values (1, 'compute-0-0', 'it''s', 'köln')";
        assert_eq!(
            hex(&encode_frame(&WalRecord::Stmt { sql })),
            "a70241000000d1fbdd263d000000696e7365727420696e746f206e6f6465732076616c7565732028\
             312c2027636f6d707574652d302d30272c20276974272773272c20276bc3b66c6e2729"
        );
        let commit = encode_frame(&WalRecord::Commit { seq: 7, revision: 42, schema_gen: 3 });
        assert_eq!(
            hex(&commit),
            "a70318000000b766b7e407000000000000002a000000000000000300000000000000"
        );
    }

    #[test]
    fn round_trip_two_transactions() {
        let mut bytes = full_txn(1);
        bytes.extend(full_txn(2));
        let scan = scan_bytes(&bytes);
        assert!(scan.anomalies.is_empty());
        assert_eq!(scan.committed_len, bytes.len() as u64);
        assert_eq!(scan.txns.len(), 2);
        assert_eq!(scan.txns[1].seq, 2);
        assert_eq!(scan.txns[1].revision, 20);
        assert_eq!(scan.txns[1].stmts, vec!["insert into t values (2)"]);
    }

    #[test]
    fn every_truncation_point_yields_a_committed_prefix() {
        let mut bytes = full_txn(1);
        bytes.extend(full_txn(2));
        let full_len = bytes.len();
        let first_len = full_txn(1).len();
        for cut in 0..full_len {
            let scan = scan_bytes(&bytes[..cut]);
            let expect = if cut >= first_len { 1 } else { 0 };
            assert_eq!(scan.txns.len(), expect, "cut at {cut}");
            assert!(cut == 0 || cut == first_len || !scan.anomalies.is_empty());
        }
    }

    #[test]
    fn bit_flip_is_a_checksum_mismatch() {
        let bytes = full_txn(1);
        for byte in 0..bytes.len() {
            let mut dam = bytes.clone();
            dam[byte] ^= 0x10;
            let scan = scan_bytes(&dam);
            assert!(scan.txns.is_empty(), "flip at {byte} must not commit");
            assert!(!scan.anomalies.is_empty());
        }
    }

    #[test]
    fn uncommitted_tail_is_a_partial_commit() {
        let mut bytes = full_txn(1);
        bytes.extend(encode_frame(&WalRecord::Begin { seq: 2 }));
        bytes.extend(encode_frame(&WalRecord::Stmt { sql: "delete from t" }));
        let scan = scan_bytes(&bytes);
        assert_eq!(scan.txns.len(), 1);
        assert_eq!(scan.committed_len, full_txn(1).len() as u64);
        assert!(matches!(scan.anomalies.as_slice(), [RecoveryError::PartialCommit(_)]));
    }
}
