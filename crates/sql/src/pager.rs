//! The pager: a heap of CRC-prefixed pages under a double-buffered
//! header, the physical half of the storage engine.
//!
//! ```text
//! [0    .. 2048)  header slot 0
//! [2048 .. 4096)  header slot 1
//! [4096 ..    )   page 0, page 1, ... (4096 bytes each)
//! ```
//!
//! The live header names a catalog page, and everything a snapshot holds
//! is reached from there. A checkpoint changes the snapshot without ever
//! touching a page the live header reaches: new pages go to free page
//! ids below the header's page count, lowest first, then past the end;
//! they are synced; and only then is the older header slot overwritten
//! with a higher generation number — the atomic commit point. Recovery
//! reads both slots and trusts whichever has a valid CRC and the higher
//! generation, so a crash at any write boundary leaves either the old
//! snapshot or the new one fully intact, never a blend. After the flip
//! the pages only the old header reached are free, and free pages at the
//! end of the file are cut off it, which is what keeps the file bounded
//! by about twice what is live.
//!
//! The free set is in memory only. At open every page below the live
//! page count counts as reachable; recovery, which reads every reachable
//! page anyway, reports the ones it did not reach
//! ([`Pager::free_unreached`]).

use crate::codec::{self, Reader};
use crate::disk::{crc32, DiskError, DiskFile, DiskResult};
use crate::recovery::RecoveryError;
use std::collections::BTreeSet;

/// On-disk page size.
pub const PAGE_SIZE: usize = 4096;
/// Bytes of payload per page (4 bytes go to the page CRC).
pub const PAGE_PAYLOAD: usize = PAGE_SIZE - 4;
/// Bytes of a chain one page carries, after the id of the next page.
const CHAIN_PAYLOAD: usize = PAGE_PAYLOAD - 4;
/// The `next` of a chain's last page.
const CHAIN_END: u32 = u32::MAX;

const HEADER_SLOT_SIZE: u64 = 2048;
const HEAP_START: u64 = 2 * HEADER_SLOT_SIZE;
const HEADER_MAGIC: u64 = 0x524F_434B_5344_4232; // "ROCKSDB2"
/// The format whose snapshot was one contiguous region at a byte offset.
const REGION_FORMAT_MAGIC: u64 = 0x524F_434B_5344_4231; // "ROCKSDB1"

/// A decoded header slot: everything needed to locate and interpret the
/// live snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Monotone flip counter; the valid slot with the higher value wins.
    pub generation: u64,
    /// Every page the snapshot reaches has an id below this.
    pub pages: u32,
    /// First page of the catalog chain.
    pub catalog_page: u32,
    /// Catalog length in bytes.
    pub catalog_len: u32,
    /// Highest commit sequence number folded into this snapshot; WAL
    /// replay skips commits at or below it.
    pub checkpoint_seq: u64,
    /// `ClusterDb` revision at checkpoint.
    pub revision: u64,
    /// Schema generation at checkpoint.
    pub schema_gen: u64,
}

fn encode_header(meta: &SnapshotMeta) -> Vec<u8> {
    let mut out = Vec::with_capacity(56);
    codec::put_u64(&mut out, HEADER_MAGIC);
    codec::put_u64(&mut out, meta.generation);
    codec::put_u32(&mut out, meta.pages);
    codec::put_u32(&mut out, meta.catalog_page);
    codec::put_u32(&mut out, meta.catalog_len);
    codec::put_u64(&mut out, meta.checkpoint_seq);
    codec::put_u64(&mut out, meta.revision);
    codec::put_u64(&mut out, meta.schema_gen);
    let crc = crc32(&out);
    codec::put_u32(&mut out, crc);
    out
}

fn decode_header(bytes: &[u8]) -> Option<SnapshotMeta> {
    // Fixed layout: five u64s + three u32s = 52 bytes + 4 CRC.
    const BODY: usize = 52;
    if bytes.len() < BODY + 4 {
        return None;
    }
    let crc = u32::from_le_bytes(bytes[BODY..BODY + 4].try_into().expect("4 bytes"));
    if crc32(&bytes[..BODY]) != crc {
        return None;
    }
    let mut r = Reader::new(&bytes[..BODY]);
    let magic = r.u64().ok()?;
    if magic != HEADER_MAGIC {
        return None;
    }
    Some(SnapshotMeta {
        generation: r.u64().ok()?,
        pages: r.u32().ok()?,
        catalog_page: r.u32().ok()?,
        catalog_len: r.u32().ok()?,
        checkpoint_seq: r.u64().ok()?,
        revision: r.u64().ok()?,
        schema_gen: r.u64().ok()?,
    })
}

fn page_offset(page: u32) -> u64 {
    HEAP_START + page as u64 * PAGE_SIZE as u64
}

/// The pager: owns the data file, the live header and the free set.
pub struct Pager {
    file: Box<dyn DiskFile>,
    live: Option<SnapshotMeta>,
    /// Which slot the live header occupies (the next flip targets the
    /// other one).
    live_slot: u8,
    /// File was non-empty but neither header slot decoded. Legal only
    /// when a crash interrupted the *first* checkpoint (the WAL then
    /// still holds the full history); the recovery layer decides.
    headerless: bool,
    /// Pages below the live page count that the live header does not
    /// reach. Pages at or past the count are free without being listed.
    free: BTreeSet<u32>,
}

impl std::fmt::Debug for Pager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pager")
            .field("live", &self.live)
            .field("live_slot", &self.live_slot)
            .field("free", &self.free.len())
            .finish()
    }
}

impl Pager {
    /// Open the data file and locate the live snapshot, if any.
    ///
    /// Both-slots-invalid on a non-empty file sets
    /// [`headerless_damage`](Self::headerless_damage) instead of erroring:
    /// whether that state is survivable (crash before the first header
    /// flip — the WAL still has everything) or fatal (a once-valid
    /// snapshot was destroyed) is decided by the recovery layer, which
    /// can see the log.
    pub fn open(file: Box<dyn DiskFile>) -> Result<Pager, RecoveryError> {
        let len = file.len().map_err(RecoveryError::from_disk)?;
        let mut slots = [None, None];
        for (i, slot) in slots.iter_mut().enumerate() {
            let off = i as u64 * HEADER_SLOT_SIZE;
            if len >= off + HEADER_SLOT_SIZE {
                let mut buf = vec![0u8; HEADER_SLOT_SIZE as usize];
                file.read_exact_at(off, &mut buf).map_err(RecoveryError::from_disk)?;
                // No torn or flipped write turns the magic into this one:
                // an older engine wrote the file, and a snapshot may not
                // be taken for absent.
                if buf[..8] == REGION_FORMAT_MAGIC.to_le_bytes() {
                    return Err(RecoveryError::Corrupt(
                        "data file is in the ROCKSDB1 format, which this engine does not read"
                            .into(),
                    ));
                }
                *slot = decode_header(&buf);
            }
        }
        let (live_slot, live) = match (slots[0], slots[1]) {
            (Some(a), Some(b)) if a.generation >= b.generation => (0, Some(a)),
            (_, Some(b)) => (1, Some(b)),
            (Some(a), None) => (0, Some(a)),
            (None, None) => (1, None),
        };
        if let Some(meta) = &live {
            // Every page a header reaches was synced before the header
            // was written, and the file is never cut below its count.
            if page_offset(meta.pages) > len {
                return Err(RecoveryError::Corrupt(format!(
                    "header counts {} pages, the {len}-byte file is shorter",
                    meta.pages
                )));
            }
        }
        let headerless = live.is_none() && len > 0;
        Ok(Pager { file, live, live_slot, headerless, free: BTreeSet::new() })
    }

    /// The live snapshot's metadata, if a checkpoint has ever completed.
    pub fn live(&self) -> Option<&SnapshotMeta> {
        self.live.as_ref()
    }

    /// True when the file was non-empty but held no valid header (see
    /// [`open`](Self::open)).
    pub fn headerless_damage(&self) -> bool {
        self.headerless
    }

    /// Repair a headerless file by erasing it back to emptiness, making
    /// recovery idempotent: once the decision to rebuild from the log is
    /// made, the damaged half-checkpoint must not greet the next open.
    pub fn reset_damaged(&mut self) -> DiskResult<()> {
        self.file.truncate(0)?;
        self.file.sync()?;
        self.headerless = false;
        Ok(())
    }

    fn live_pages(&self) -> u32 {
        self.live.map_or(0, |l| l.pages)
    }

    /// Read and verify one page of the live snapshot.
    pub fn read_page(&self, page: u32) -> Result<Vec<u8>, RecoveryError> {
        if page >= self.live_pages() {
            return Err(RecoveryError::Corrupt(format!(
                "page {page} out of range ({} pages)",
                self.live_pages()
            )));
        }
        let off = page_offset(page);
        let mut buf = vec![0u8; PAGE_SIZE];
        self.file.read_exact_at(off, &mut buf).map_err(RecoveryError::from_disk)?;
        let crc = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes"));
        if crc32(&buf[4..]) != crc {
            return Err(RecoveryError::ChecksumMismatch(format!(
                "snapshot page {page} (offset {off}) fails its CRC"
            )));
        }
        buf.drain(..4);
        Ok(buf)
    }

    /// Recovery's report after reading everything the live header
    /// reaches: `reached[p]` says whether it came to page `p`. The rest,
    /// below the live page count, is free from here on.
    pub fn free_unreached(&mut self, reached: &[bool]) {
        self.free = (0..self.live_pages()).filter(|&p| !reached[p as usize]).collect();
    }

    /// Write one page. Refused for a page the live header reaches: a
    /// snapshot changes by a header flip and in no other way.
    pub fn write_page(&mut self, page: u32, payload: &[u8]) -> DiskResult<()> {
        if page < self.live_pages() && !self.free.contains(&page) {
            return Err(DiskError::LivePage(page));
        }
        assert!(payload.len() <= PAGE_PAYLOAD, "page payload overflow: {}", payload.len());
        let mut buf = [0u8; PAGE_SIZE];
        buf[4..4 + payload.len()].copy_from_slice(payload);
        let crc = crc32(&buf[4..]);
        buf[..4].copy_from_slice(&crc.to_le_bytes());
        self.file.write_at(page_offset(page), &buf)
    }

    /// Start a checkpoint's worth of page writes. Dropping the writer
    /// without a [`flip`](PageWriter::flip) abandons them: the pages it
    /// wrote are still free.
    pub fn writer(&mut self) -> PageWriter<'_> {
        PageWriter { pager: self, next: 0, taken: Vec::new() }
    }

    /// Compaction: cut off the file whatever lies past the live page
    /// count — pages the last flip freed, or a crashed checkpoint's.
    /// Returns whether there was anything to cut (and sync).
    pub fn trim(&mut self) -> DiskResult<bool> {
        let end = page_offset(self.live_pages());
        let cut = self.file.len()? > end;
        if cut {
            self.file.truncate(end)?;
            self.file.sync()?;
        }
        Ok(cut)
    }

    /// Total data-file length (telemetry).
    pub fn file_len(&self) -> DiskResult<u64> {
        self.file.len()
    }
}

/// The pages of one checkpoint: written where the live header cannot
/// see them, made the live snapshot by [`flip`](Self::flip).
pub struct PageWriter<'p> {
    pager: &'p mut Pager,
    /// No page id below this is still to be had.
    next: u32,
    /// Page ids handed out, ascending.
    taken: Vec<u32>,
}

impl PageWriter<'_> {
    /// The lowest free page id not yet handed out.
    fn alloc(&mut self) -> u32 {
        let page = match self.pager.free.range(self.next..).next() {
            Some(&page) => page,
            None => self.next.max(self.pager.live_pages()),
        };
        self.next = page + 1;
        self.taken.push(page);
        page
    }

    /// Write `payload` (at most [`PAGE_PAYLOAD`] bytes, padded with
    /// zeroes) to a free page; returns the page's id.
    pub fn put(&mut self, payload: &[u8]) -> DiskResult<u32> {
        let page = self.alloc();
        self.pager.write_page(page, payload)?;
        Ok(page)
    }

    /// Write `bytes` across as many pages as it takes, each naming the
    /// next; returns those pages, first one first (at least one, even
    /// for no bytes). [`read_chain`] reads it back.
    pub fn put_chain(&mut self, bytes: &[u8]) -> DiskResult<Vec<u32>> {
        let pages: Vec<u32> =
            (0..bytes.len().div_ceil(CHAIN_PAYLOAD).max(1)).map(|_| self.alloc()).collect();
        let mut chunks = bytes.chunks(CHAIN_PAYLOAD);
        let mut payload = Vec::with_capacity(PAGE_PAYLOAD);
        for (i, &page) in pages.iter().enumerate() {
            payload.clear();
            codec::put_u32(&mut payload, pages.get(i + 1).copied().unwrap_or(CHAIN_END));
            payload.extend_from_slice(chunks.next().unwrap_or_default());
            self.pager.write_page(page, &payload)?;
        }
        Ok(pages)
    }

    /// Pages written so far.
    pub fn written(&self) -> u64 {
        self.taken.len() as u64
    }

    /// Make the pages written, plus every live page not in `released`,
    /// the live snapshot, behind two syncs. On return the new snapshot is
    /// durable and the released pages are free; on a crash anywhere
    /// inside, the previous snapshot (or fresh emptiness) is still
    /// intact, and on an error the pager still stands on the old header.
    pub fn flip(
        self,
        mut released: Vec<u32>,
        catalog_page: u32,
        catalog_len: u32,
        checkpoint_seq: u64,
        revision: u64,
        schema_gen: u64,
    ) -> DiskResult<()> {
        let PageWriter { pager, taken, .. } = self;
        // Barrier 1: the pages must be stable before the header can
        // point at them.
        pager.file.sync()?;

        // The new page count: past the last page written, then back over
        // every page at the end that the new header will not reach.
        released.sort_unstable();
        let free_after = |page: u32| {
            taken.binary_search(&page).is_err()
                && (pager.free.contains(&page) || released.binary_search(&page).is_ok())
        };
        let mut pages = pager.live_pages().max(taken.last().map_or(0, |last| last + 1));
        while pages > 0 && free_after(pages - 1) {
            pages -= 1;
        }
        let meta = SnapshotMeta {
            generation: pager.live.map_or(1, |l| l.generation + 1),
            pages,
            catalog_page,
            catalog_len,
            checkpoint_seq,
            revision,
            schema_gen,
        };
        let target_slot = 1 - pager.live_slot;
        pager.file.write_at(target_slot as u64 * HEADER_SLOT_SIZE, &encode_header(&meta))?;
        // Barrier 2: the flip itself. After this sync the new snapshot
        // is the recovery target.
        pager.file.sync()?;
        pager.live = Some(meta);
        pager.live_slot = target_slot;
        pager.headerless = false;
        for page in &taken {
            pager.free.remove(page);
        }
        pager.free.extend(released);
        pager.free.split_off(&pages);
        Ok(())
    }
}

/// Read back the bytes [`PageWriter::put_chain`] spread over pages,
/// through `read` (which is where a page reached twice, or one out of
/// range, is refused). Returns the bytes and the pages that held them.
pub fn read_chain(
    read: &mut dyn FnMut(u32) -> Result<Vec<u8>, RecoveryError>,
    first: u32,
    len: usize,
) -> Result<(Vec<u8>, Vec<u32>), RecoveryError> {
    let (mut out, mut pages) = (Vec::new(), Vec::new());
    let mut page = first;
    loop {
        let payload = read(page)?;
        pages.push(page);
        page = u32::from_le_bytes(payload[..4].try_into().expect("4 bytes"));
        let take = (len - out.len()).min(CHAIN_PAYLOAD);
        out.extend_from_slice(&payload[4..4 + take]);
        if out.len() == len {
            return Ok((out, pages));
        }
        if page == CHAIN_END {
            return Err(RecoveryError::Corrupt(format!(
                "chain from page {first} ends after {} of {len} bytes",
                out.len()
            )));
        }
    }
}

impl RecoveryError {
    /// Disk failures during recovery reads surface as `Corrupt` (for
    /// out-of-range reads of a truncated file) or pass `Crashed` through
    /// as an I/O-level corruption marker.
    pub(crate) fn from_disk(e: DiskError) -> RecoveryError {
        match e {
            DiskError::OutOfBounds { .. } => {
                RecoveryError::TornWrite(format!("snapshot read past end of file: {e}"))
            }
            other => RecoveryError::Corrupt(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{MemVfs, Vfs};

    /// One checkpoint: `bytes` as the catalog chain, the previous chain
    /// released.
    fn checkpoint(pager: &mut Pager, bytes: &[u8], released: &[u32], seq: u64) -> Vec<u32> {
        let mut w = pager.writer();
        let chain = w.put_chain(bytes).unwrap();
        w.flip(released.to_vec(), chain[0], bytes.len() as u32, seq, seq, 1).unwrap();
        pager.trim().unwrap();
        chain
    }

    fn catalog(pager: &Pager) -> Vec<u8> {
        let live = *pager.live().unwrap();
        read_chain(&mut |p| pager.read_page(p), live.catalog_page, live.catalog_len as usize)
            .unwrap()
            .0
    }

    #[test]
    fn header_encode_decode_round_trip() {
        let meta = SnapshotMeta {
            generation: 7,
            pages: 3,
            catalog_page: 2,
            catalog_len: 999,
            checkpoint_seq: 41,
            revision: 90,
            schema_gen: 5,
        };
        let bytes = encode_header(&meta);
        assert_eq!(decode_header(&bytes), Some(meta));
        // Any single corrupted byte must invalidate the slot.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert_eq!(decode_header(&bad), None, "byte {i} corruption undetected");
        }
    }

    #[test]
    fn fresh_file_has_no_snapshot() {
        let vfs = MemVfs::new();
        let pager = Pager::open(vfs.open("data").unwrap()).unwrap();
        assert!(pager.live().is_none());
        assert!(!pager.headerless_damage());
    }

    #[test]
    fn snapshot_round_trip_and_generation_flip() {
        let vfs = MemVfs::new();
        let mut pager = Pager::open(vfs.open("data").unwrap()).unwrap();
        let first = checkpoint(&mut pager, b"first snapshot", &[], 3);
        assert_eq!(pager.live().unwrap().generation, 1);
        assert_eq!(catalog(&pager), b"first snapshot");

        let big = vec![7u8; PAGE_PAYLOAD + 100];
        let second = checkpoint(&mut pager, &big, &first, 5);
        assert_eq!(second.len(), 2);
        assert_eq!(pager.live().unwrap().generation, 2);
        assert_eq!(catalog(&pager), big);

        // A reopen finds the latest generation.
        let pager2 = Pager::open(vfs.open("data").unwrap()).unwrap();
        assert_eq!(pager2.live(), pager.live());
        assert_eq!(catalog(&pager2), big);
    }

    #[test]
    fn page_corruption_is_detected() {
        let vfs = MemVfs::new();
        let mut pager = Pager::open(vfs.open("data").unwrap()).unwrap();
        let chain = checkpoint(&mut pager, b"payload", &[], 1);
        // Flip a byte inside the page, behind the pager's back.
        let mut f = vfs.open("data").unwrap();
        let mut b = [0u8; 1];
        f.read_exact_at(page_offset(chain[0]) + 10, &mut b).unwrap();
        f.write_at(page_offset(chain[0]) + 10, &[b[0] ^ 0xFF]).unwrap();
        f.sync().unwrap();
        let pager = Pager::open(vfs.open("data").unwrap()).unwrap();
        assert!(matches!(pager.read_page(chain[0]), Err(RecoveryError::ChecksumMismatch(_))));
    }

    #[test]
    fn both_headers_bad_is_flagged_for_recovery() {
        let vfs = MemVfs::new();
        let mut f = vfs.open("data").unwrap();
        f.write_at(0, &vec![0xABu8; 2 * HEADER_SLOT_SIZE as usize]).unwrap();
        f.sync().unwrap();
        let pager = Pager::open(vfs.open("data").unwrap()).unwrap();
        assert!(pager.live().is_none());
        assert!(pager.headerless_damage());
    }

    #[test]
    fn checkpoints_compact_instead_of_growing() {
        let vfs = MemVfs::new();
        let mut pager = Pager::open(vfs.open("data").unwrap()).unwrap();
        let payload = vec![1u8; 3 * CHAIN_PAYLOAD];
        let (mut lens, mut chain) = (Vec::new(), Vec::new());
        for seq in 0..8 {
            chain = checkpoint(&mut pager, &payload, &chain, seq);
            lens.push(pager.file_len().unwrap());
        }
        // Every page replaced every time: the new ones take the pages
        // the checkpoint before freed, so the file never holds more than
        // two generations, and whenever the new one lands in the low
        // pages the high ones are cut off.
        let one = 3 * PAGE_SIZE as u64;
        assert!(lens.iter().all(|&l| l <= HEAP_START + 2 * one), "file grew: {lens:?}");
        assert_eq!(lens[6], HEAP_START + one, "trailing free pages stayed: {lens:?}");
    }

    #[test]
    fn a_live_page_cannot_be_written() {
        let vfs = MemVfs::new();
        let mut pager = Pager::open(vfs.open("data").unwrap()).unwrap();
        let first = checkpoint(&mut pager, &vec![1u8; 2 * CHAIN_PAYLOAD], &[], 1);
        let writes = vfs.write_count();
        for &page in &first {
            assert_eq!(pager.write_page(page, b"x"), Err(DiskError::LivePage(page)));
        }
        assert_eq!(vfs.write_count(), writes, "a refused write reached the disk");
        // Released by the next flip, the same pages take writes again;
        // the chain that replaced them does not.
        let second = checkpoint(&mut pager, b"second", &first, 2);
        assert!(first.iter().all(|&page| pager.write_page(page, b"x").is_ok()));
        assert_eq!(pager.write_page(second[0], b"x"), Err(DiskError::LivePage(second[0])));
        // A reopened pager knows nothing free until recovery has walked
        // the snapshot, so it refuses everything below the page count.
        let mut reopened = Pager::open(vfs.open("data").unwrap()).unwrap();
        let pages = reopened.live().unwrap().pages;
        assert!((0..pages).all(|p| reopened.write_page(p, b"x") == Err(DiskError::LivePage(p))));
        let mut reached = vec![false; pages as usize];
        reached[second[0] as usize] = true;
        reopened.free_unreached(&reached);
        assert!(reopened.write_page(first[0], b"x").is_ok());
        assert_eq!(reopened.write_page(second[0], b"x"), Err(DiskError::LivePage(second[0])));
    }

    #[test]
    fn an_abandoned_writer_leaves_the_free_set_alone() {
        let vfs = MemVfs::new();
        let mut pager = Pager::open(vfs.open("data").unwrap()).unwrap();
        let first = checkpoint(&mut pager, b"one", &[], 1);
        let second = checkpoint(&mut pager, b"two", &first, 2);
        assert_ne!(first, second);
        let mut w = pager.writer();
        assert_eq!(w.put(b"never flipped").unwrap(), first[0], "lowest free page first");
        drop(w);
        assert_eq!(pager.writer().put(b"again").unwrap(), first[0]);
        assert_eq!(catalog(&pager), b"two");
    }
}
