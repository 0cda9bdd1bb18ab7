//! The "disk": a trait over positional file I/O, with two
//! implementations — real files for production use, and a deterministic
//! in-memory disk whose fault injector models exactly what a kernel
//! page cache does to an unsynced file when the machine dies.
//!
//! # The fault model
//!
//! Each in-memory file keeps two images: `stable` (what has survived the
//! last `sync`) and `view` (what the process sees, i.e. stable plus every
//! buffered write). Mutating operations — `write_at`, `truncate`,
//! `sync` — are *counted* across the whole VFS. A [`CrashPlan`] names the
//! op number at which the machine dies: the triggering op and everything
//! after it fail with [`DiskError::Crashed`], and each file's stable
//! image advances by only a *seeded prefix* of its buffered ops. The last
//! surviving write may additionally be torn (a prefix of its bytes) or
//! hit by a bit flip — the classic torn-write / corrupted-sector
//! outcomes. [`MemVfs::survivor`] then yields the disk a rebooted
//! machine would find.
//!
//! An image is a run of fixed-size blocks shared copy-on-write, so
//! `stable`, `view` and a survivor's copies of both hold one block
//! between them until a write separates them: `sync` costs a pointer per
//! block written since the last one, `survivor` a pointer per block, a
//! write copies the blocks it lands on, and the disk never asks the
//! allocator for a buffer the size of a file.

use crate::codec::fnv1a;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::rc::Rc;

/// Errors from the disk layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiskError {
    /// The fault injector killed the machine; every subsequent operation
    /// on this VFS fails with this error.
    Crashed,
    /// A read past the end of the file.
    OutOfBounds {
        /// Requested offset.
        offset: u64,
        /// Requested length.
        len: u64,
        /// Actual file length.
        file_len: u64,
    },
    /// An OS-level I/O failure (real files only).
    Io(String),
    /// A write aimed at a page the live snapshot header reaches. The
    /// pager refuses it: such a page may only change by being freed.
    LivePage(u32),
}

impl std::fmt::Display for DiskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiskError::Crashed => write!(f, "disk crashed (fault injection)"),
            DiskError::OutOfBounds { offset, len, file_len } => {
                write!(f, "read [{offset}, {offset}+{len}) past end of {file_len}-byte file")
            }
            DiskError::Io(e) => write!(f, "io error: {e}"),
            DiskError::LivePage(page) => {
                write!(f, "refused to overwrite page {page}, which the live snapshot reaches")
            }
        }
    }
}

impl std::error::Error for DiskError {}

/// Result alias for disk operations.
pub(crate) type DiskResult<T> = std::result::Result<T, DiskError>;

/// Positional file I/O, the only interface the storage engine uses.
/// Durability contract: `write_at`/`truncate` are buffered and may be
/// lost, reordered only by truncation, or torn on crash; `sync` makes
/// everything issued so far survive.
pub trait DiskFile {
    /// Current file length in bytes (as the process sees it).
    fn len(&self) -> DiskResult<u64>;
    /// True when the file holds no bytes.
    fn is_empty(&self) -> DiskResult<bool> {
        Ok(self.len()? == 0)
    }
    /// Read exactly `buf.len()` bytes at `offset`.
    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> DiskResult<()>;
    /// Buffered positional write; extends the file if needed.
    fn write_at(&mut self, offset: u64, data: &[u8]) -> DiskResult<()>;
    /// Buffered truncation (or extension with zeroes) to `len` bytes.
    fn truncate(&mut self, len: u64) -> DiskResult<()>;
    /// Flush every buffered operation to stable storage.
    fn sync(&mut self) -> DiskResult<()>;
}

/// Opens named files. The storage engine uses two: `"wal"` and `"data"`.
pub trait Vfs {
    /// Open (creating if absent) the file called `name`.
    fn open(&self, name: &str) -> DiskResult<Box<dyn DiskFile>>;
}

/// When and how the in-memory disk dies. The crash fires on the
/// `at_op`-th mutating operation (1-based) counted from when the plan was
/// armed; `seed` drives every per-file decision (how many buffered ops
/// survive, whether the last one is torn or bit-flipped).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// 1-based index of the mutating op that does not complete.
    pub at_op: u64,
    /// Seed for the surviving-prefix / torn-write / bit-flip decisions.
    pub seed: u64,
}

#[derive(Debug, Clone)]
enum PendingOp {
    Write { offset: u64, data: Vec<u8> },
    Truncate { len: u64 },
}

/// Bytes in one block of an [`Image`].
const BLOCK: usize = 4096;

/// A file's content. Cloning shares every block; writing to a shared
/// block copies it first. Bytes of the last block past `len` are zero.
#[derive(Debug, Clone, Default)]
struct Image {
    blocks: Vec<Rc<[u8; BLOCK]>>,
    len: usize,
}

impl Image {
    /// Cut to `len` bytes, or extend to it with zeroes.
    fn resize(&mut self, len: usize) {
        let blocks = len.div_ceil(BLOCK);
        if len < self.len {
            self.blocks.truncate(blocks);
            if !len.is_multiple_of(BLOCK) {
                Rc::make_mut(&mut self.blocks[blocks - 1])[len % BLOCK..].fill(0);
            }
        } else {
            self.blocks.resize_with(blocks, || Rc::new([0; BLOCK]));
        }
        self.len = len;
    }

    fn write(&mut self, offset: usize, mut data: &[u8]) {
        if self.len < offset + data.len() {
            self.resize(offset + data.len());
        }
        let mut at = offset;
        while !data.is_empty() {
            let start = at % BLOCK;
            let (head, rest) = data.split_at(data.len().min(BLOCK - start));
            Rc::make_mut(&mut self.blocks[at / BLOCK])[start..start + head.len()]
                .copy_from_slice(head);
            at += head.len();
            data = rest;
        }
    }

    /// Fill `buf` from `offset`; the caller has checked the bounds.
    fn read(&self, offset: usize, mut buf: &mut [u8]) {
        let mut at = offset;
        while !buf.is_empty() {
            let start = at % BLOCK;
            let (head, rest) = buf.split_at_mut(buf.len().min(BLOCK - start));
            head.copy_from_slice(&self.blocks[at / BLOCK][start..start + head.len()]);
            at += head.len();
            buf = rest;
        }
    }

    fn to_vec(&self) -> Vec<u8> {
        let mut out = vec![0; self.len];
        self.read(0, &mut out);
        out
    }

    /// Become `view`, which is this image with `pending` applied, by
    /// taking over only the blocks those ops can have changed: the ones
    /// a write landed on, and everything from the lowest point the file
    /// was cut to, or this image ended at, upwards.
    fn catch_up(&mut self, view: &Image, pending: &[PendingOp]) {
        let mut low = self.len / BLOCK;
        for op in pending {
            if let PendingOp::Truncate { len } = op {
                low = low.min(*len as usize / BLOCK);
            }
        }
        low = low.min(view.blocks.len());
        for op in pending {
            if let PendingOp::Write { offset, data } = op {
                let end = (*offset as usize + data.len()).div_ceil(BLOCK);
                for block in *offset as usize / BLOCK..end.min(low) {
                    self.blocks[block] = Rc::clone(&view.blocks[block]);
                }
            }
        }
        self.blocks.truncate(low);
        self.blocks.extend_from_slice(&view.blocks[low..]);
        self.len = view.len;
    }
}

#[derive(Debug, Clone, Default)]
struct MemFileState {
    /// What survived the last sync.
    stable: Image,
    /// What the process sees (stable + buffered ops applied).
    view: Image,
    /// Buffered ops since the last sync, in issue order.
    pending: Vec<PendingOp>,
}

fn apply_op(image: &mut Image, op: &PendingOp) {
    match op {
        PendingOp::Write { offset, data } => image.write(*offset as usize, data),
        PendingOp::Truncate { len } => image.resize(*len as usize),
    }
}

#[derive(Debug, Default)]
struct VfsState {
    files: BTreeMap<String, MemFileState>,
    /// Mutating ops since the current crash plan was armed.
    ops: u64,
    plan: Option<CrashPlan>,
    crashed: bool,
    /// Lifetime telemetry (never reset by arming).
    total_writes: u64,
    total_syncs: u64,
}

impl VfsState {
    /// A cheap deterministic per-decision PRNG: the crash machinery must
    /// not depend on the workload's RNG stream.
    fn roll(seed: u64, salt: u64) -> u64 {
        fnv1a(&[seed.to_le_bytes(), salt.to_le_bytes()].concat())
    }

    /// The machine dies: advance each file's stable image by a seeded
    /// prefix of its buffered ops, possibly tearing or flipping the last
    /// surviving write.
    fn crash(&mut self, seed: u64) {
        for (salt, (name, file)) in self.files.iter_mut().enumerate() {
            let r = Self::roll(seed, fnv1a(name.as_bytes()) ^ salt as u64);
            let keep =
                if file.pending.is_empty() { 0 } else { r as usize % (file.pending.len() + 1) };
            for op in &file.pending[..keep] {
                apply_op(&mut file.stable, op);
            }
            // Damage the frontier: maybe tear or bit-flip the op right
            // *after* the surviving prefix (the one in flight).
            if keep < file.pending.len() {
                if let PendingOp::Write { offset, data } = &file.pending[keep] {
                    match Self::roll(seed, r) % 4 {
                        // 0 => the in-flight write vanishes entirely.
                        1 if !data.is_empty() => {
                            // Torn: a prefix of the sectors made it out.
                            let cut = 1 + (Self::roll(seed, r ^ 1) as usize % data.len());
                            apply_op(
                                &mut file.stable,
                                &PendingOp::Write { offset: *offset, data: data[..cut].to_vec() },
                            );
                        }
                        2 if !data.is_empty() => {
                            // Corrupted sector: one bit flipped.
                            let mut data = data.clone();
                            let byte = Self::roll(seed, r ^ 2) as usize % data.len();
                            let bit = (Self::roll(seed, r ^ 3) % 8) as u8;
                            data[byte] ^= 1 << bit;
                            apply_op(&mut file.stable, &PendingOp::Write { offset: *offset, data });
                        }
                        _ => {}
                    }
                }
            }
            file.pending.clear();
        }
        self.crashed = true;
    }

    /// Count one mutating op; returns `Err(Crashed)` if the plan fires
    /// (the triggering op does not complete) or the machine is already
    /// dead.
    fn tick(&mut self) -> DiskResult<()> {
        if self.crashed {
            return Err(DiskError::Crashed);
        }
        self.ops += 1;
        if let Some(plan) = self.plan {
            if self.ops >= plan.at_op {
                self.crash(plan.seed);
                return Err(DiskError::Crashed);
            }
        }
        Ok(())
    }
}

/// The deterministic in-memory disk. Cloning the handle shares the
/// underlying state (it models one machine's disk, however many files
/// are open on it).
#[derive(Debug, Clone, Default)]
pub struct MemVfs {
    state: Rc<RefCell<VfsState>>,
}

impl MemVfs {
    /// A fresh, empty, fault-free disk.
    pub fn new() -> Self {
        MemVfs::default()
    }

    /// Arm a crash plan: mutating-op counting restarts at zero and the
    /// `plan.at_op`-th op from now will not complete.
    pub fn arm(&self, plan: CrashPlan) {
        let mut s = self.state.borrow_mut();
        s.ops = 0;
        s.plan = Some(plan);
    }

    /// Mutating ops observed since the last [`arm`](Self::arm) (or since
    /// creation). A fault-free golden run uses this to learn how many
    /// crash points a workload exposes.
    pub fn ops(&self) -> u64 {
        self.state.borrow().ops
    }

    /// True once the armed crash has fired.
    pub fn crashed(&self) -> bool {
        self.state.borrow().crashed
    }

    /// Lifetime `sync` count (telemetry).
    pub fn sync_count(&self) -> u64 {
        self.state.borrow().total_syncs
    }

    /// Lifetime `write_at`/`truncate` count (telemetry).
    pub fn write_count(&self) -> u64 {
        self.state.borrow().total_writes
    }

    /// The disk a rebooted machine finds: every file reduced to its
    /// post-crash stable image, fault-free, counters reset.
    pub fn survivor(&self) -> MemVfs {
        let s = self.state.borrow();
        let files = s
            .files
            .iter()
            .map(|(name, f)| {
                (
                    name.clone(),
                    MemFileState {
                        stable: f.stable.clone(),
                        view: f.stable.clone(),
                        pending: Vec::new(),
                    },
                )
            })
            .collect();
        MemVfs { state: Rc::new(RefCell::new(VfsState { files, ..VfsState::default() })) }
    }

    /// Raw stable bytes of a file (test introspection).
    pub fn stable_bytes(&self, name: &str) -> Option<Vec<u8>> {
        self.state.borrow().files.get(name).map(|f| f.stable.to_vec())
    }
}

impl Vfs for MemVfs {
    fn open(&self, name: &str) -> DiskResult<Box<dyn DiskFile>> {
        let mut s = self.state.borrow_mut();
        if s.crashed {
            return Err(DiskError::Crashed);
        }
        s.files.entry(name.to_string()).or_default();
        Ok(Box::new(MemFile { state: Rc::clone(&self.state), name: name.to_string() }))
    }
}

struct MemFile {
    state: Rc<RefCell<VfsState>>,
    name: String,
}

impl DiskFile for MemFile {
    fn len(&self) -> DiskResult<u64> {
        let s = self.state.borrow();
        if s.crashed {
            return Err(DiskError::Crashed);
        }
        Ok(s.files[&self.name].view.len as u64)
    }

    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> DiskResult<()> {
        let s = self.state.borrow();
        if s.crashed {
            return Err(DiskError::Crashed);
        }
        let view = &s.files[&self.name].view;
        let end = offset as usize + buf.len();
        if end > view.len {
            return Err(DiskError::OutOfBounds {
                offset,
                len: buf.len() as u64,
                file_len: view.len as u64,
            });
        }
        view.read(offset as usize, buf);
        Ok(())
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> DiskResult<()> {
        let mut s = self.state.borrow_mut();
        s.total_writes += 1;
        // Record the op *before* the tick so the in-flight write is
        // visible to the crash (it may be the one that tears).
        let op = PendingOp::Write { offset, data: data.to_vec() };
        s.files.get_mut(&self.name).expect("open file").pending.push(op);
        s.tick()?;
        let file = s.files.get_mut(&self.name).expect("open file");
        apply_op(&mut file.view, file.pending.last().expect("just pushed"));
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> DiskResult<()> {
        let mut s = self.state.borrow_mut();
        s.total_writes += 1;
        let op = PendingOp::Truncate { len };
        s.files.get_mut(&self.name).expect("open file").pending.push(op);
        s.tick()?;
        let file = s.files.get_mut(&self.name).expect("open file");
        apply_op(&mut file.view, &PendingOp::Truncate { len });
        Ok(())
    }

    fn sync(&mut self) -> DiskResult<()> {
        let mut s = self.state.borrow_mut();
        s.total_syncs += 1;
        // A sync that crashes has NOT flushed: tick first.
        s.tick()?;
        let file = s.files.get_mut(&self.name).expect("open file");
        file.stable.catch_up(&file.view, &file.pending);
        file.pending.clear();
        Ok(())
    }
}

/// Real files under a directory — the production side of the trait.
/// `sync` maps to `File::sync_all`.
#[derive(Debug, Clone)]
pub struct FileVfs {
    root: PathBuf,
}

impl FileVfs {
    /// A VFS rooted at `root` (created if absent).
    pub fn new(root: impl Into<PathBuf>) -> DiskResult<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root).map_err(|e| DiskError::Io(e.to_string()))?;
        Ok(FileVfs { root })
    }
}

impl Vfs for FileVfs {
    fn open(&self, name: &str) -> DiskResult<Box<dyn DiskFile>> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(self.root.join(name))
            .map_err(|e| DiskError::Io(e.to_string()))?;
        Ok(Box::new(OsFile { file }))
    }
}

struct OsFile {
    // `&File` implements `Read`, `Write` and `Seek`, so the `&self` read
    // path of the trait seeks without unix-only `FileExt`.
    file: File,
}

impl OsFile {
    fn io<T>(r: std::io::Result<T>) -> DiskResult<T> {
        r.map_err(|e| DiskError::Io(e.to_string()))
    }
}

impl DiskFile for OsFile {
    fn len(&self) -> DiskResult<u64> {
        Ok(Self::io(self.file.metadata())?.len())
    }

    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> DiskResult<()> {
        let mut f = &self.file;
        let file_len = Self::io(f.metadata())?.len();
        if offset + buf.len() as u64 > file_len {
            return Err(DiskError::OutOfBounds { offset, len: buf.len() as u64, file_len });
        }
        Self::io(f.seek(SeekFrom::Start(offset)))?;
        Self::io(f.read_exact(buf))
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> DiskResult<()> {
        Self::io(self.file.seek(SeekFrom::Start(offset)))?;
        Self::io(self.file.write_all(data))
    }

    fn truncate(&mut self, len: u64) -> DiskResult<()> {
        Self::io(self.file.set_len(len))
    }

    fn sync(&mut self) -> DiskResult<()> {
        Self::io(self.file.sync_all())
    }
}

/// `CRC_TABLES[0]` is the classic byte-at-a-time table of CRC-32 (IEEE
/// 802.3); `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k`
/// zero bytes, which lets eight input bytes fold in one step.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3), slice-by-8. Every on-disk frame and page carries
/// one; recovery treats a mismatch as a typed error rather than
/// undefined behaviour.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_extend(0, bytes)
}

/// The chained form of [`crc32`]: given `crc = crc32(a)`, the CRC of
/// `a ‖ bytes`, so a checksum over pieces needs no contiguous copy.
pub(crate) fn crc32_extend(crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !crc;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time CRC-32 the engine shipped with, table and all:
    /// the reference the sliced version must agree with on every input.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        const TABLE: [u32; 256] = {
            let mut table = [0u32; 256];
            let mut i = 0;
            while i < 256 {
                let mut c = i as u32;
                let mut k = 0;
                while k < 8 {
                    c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                    k += 1;
                }
                table[i] = c;
                i += 1;
            }
            table
        };
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc32_matches_the_bytewise_reference() {
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        let mut r = 0x5EED_C2C3u64;
        // Every head/tail alignment of the eight-byte step, and a page.
        for len in (0..=70).chain([4092]) {
            for _ in 0..8 {
                let bytes: Vec<u8> = (0..len)
                    .map(|i| {
                        r = VfsState::roll(r, i as u64);
                        r as u8
                    })
                    .collect();
                assert_eq!(crc32(&bytes), crc32_bytewise(&bytes), "len {len}: {bytes:?}");
            }
        }
    }

    /// Chaining over any split of the input is the CRC of the whole.
    #[test]
    fn chained_crc32_matches_the_bytewise_reference_over_every_split() {
        let mut r = 0xC4A1_17EDu64;
        for len in (0..=40).chain([257]) {
            let bytes: Vec<u8> = (0..len)
                .map(|i| {
                    r = VfsState::roll(r, i as u64);
                    r as u8
                })
                .collect();
            let want = crc32_bytewise(&bytes);
            for split in 0..=len {
                let (head, tail) = bytes.split_at(split);
                assert_eq!(crc32_extend(crc32(head), tail), want, "len {len}, split {split}");
                for cut in split..=len {
                    let (mid, tail) = tail.split_at(cut - split);
                    let chained = crc32_extend(crc32_extend(crc32(head), mid), tail);
                    assert_eq!(chained, want, "len {len}, splits {split} and {cut}");
                }
            }
        }
    }

    #[test]
    fn write_read_round_trip() {
        let vfs = MemVfs::new();
        let mut f = vfs.open("wal").unwrap();
        f.write_at(0, b"hello").unwrap();
        f.write_at(5, b" world").unwrap();
        assert_eq!(f.len().unwrap(), 11);
        let mut buf = [0u8; 11];
        f.read_exact_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"hello world");
        assert!(matches!(f.read_exact_at(8, &mut [0u8; 8]), Err(DiskError::OutOfBounds { .. })));
    }

    #[test]
    fn image_matches_a_flat_buffer() {
        // Writes and cuts of every alignment against the model the image
        // replaced, a clone taken at each step standing in for `stable`:
        // neither side of a shared block may see the other's writes.
        let (mut image, mut flat) = (Image::default(), Vec::<u8>::new());
        let mut kept: Vec<(Image, Vec<u8>)> = Vec::new();
        let mut r = 0x9E37_79B9_7F4A_7C15u64;
        for step in 0..400u64 {
            r = VfsState::roll(r, step);
            let at = (r >> 8) as usize % (3 * BLOCK);
            if r.is_multiple_of(5) {
                image.resize(at);
                flat.resize(at, 0);
            } else {
                let data = vec![step as u8 | 1; (r >> 32) as usize % (2 * BLOCK + 1)];
                image.write(at, &data);
                if flat.len() < at + data.len() {
                    flat.resize(at + data.len(), 0);
                }
                flat[at..at + data.len()].copy_from_slice(&data);
            }
            assert_eq!(image.to_vec(), flat, "step {step}");
            kept.push((image.clone(), flat.clone()));
        }
        for (step, (image, flat)) in kept.iter().enumerate() {
            assert_eq!(&image.to_vec(), flat, "the clone taken at step {step} changed");
        }
        let mut mid = vec![0u8; flat.len() / 2];
        image.read(flat.len() / 4, &mut mid);
        assert_eq!(mid, flat[flat.len() / 4..][..mid.len()]);
    }

    #[test]
    fn sync_makes_stable_what_the_process_sees() {
        // Writes, cuts and extensions of every alignment between syncs:
        // `sync` moves over only the blocks it takes to have changed, and
        // must end on exactly the bytes the process reads back.
        let vfs = MemVfs::new();
        let mut f = vfs.open("data").unwrap();
        let mut r = 0xD15C_5EEDu64;
        for step in 0..600u64 {
            r = VfsState::roll(r, step);
            let at = (r >> 8) % (5 * BLOCK as u64);
            match r % 7 {
                0 => f.truncate(at).unwrap(),
                1 | 2 => {
                    f.sync().unwrap();
                    let mut seen = vec![0u8; f.len().unwrap() as usize];
                    f.read_exact_at(0, &mut seen).unwrap();
                    assert_eq!(vfs.stable_bytes("data").unwrap(), seen, "step {step}");
                }
                _ => {
                    let data = vec![step as u8 | 1; (r >> 32) as usize % (2 * BLOCK + 1)];
                    f.write_at(at, &data).unwrap();
                }
            }
        }
    }

    #[test]
    fn survivor_and_disk_do_not_see_each_other() {
        let vfs = MemVfs::new();
        let mut f = vfs.open("data").unwrap();
        f.write_at(0, &[1; 3 * BLOCK]).unwrap();
        f.sync().unwrap();
        let survivor = vfs.survivor();
        let mut g = survivor.open("data").unwrap();
        f.write_at(BLOCK as u64, &[2; 8]).unwrap();
        f.sync().unwrap();
        g.write_at(2 * BLOCK as u64, &[3; 8]).unwrap();
        g.sync().unwrap();
        let mut flat = vec![1u8; 3 * BLOCK];
        flat[BLOCK..BLOCK + 8].fill(2);
        assert_eq!(vfs.stable_bytes("data").unwrap(), flat);
        flat[BLOCK..BLOCK + 8].fill(1);
        flat[2 * BLOCK..2 * BLOCK + 8].fill(3);
        assert_eq!(survivor.stable_bytes("data").unwrap(), flat);
    }

    #[test]
    fn unsynced_writes_can_vanish_on_crash() {
        // Crash on the very first op after arming with a seed whose
        // surviving prefix is empty: the write must not reach stable.
        for seed in 0..32u64 {
            let vfs = MemVfs::new();
            let mut f = vfs.open("wal").unwrap();
            f.write_at(0, b"durable").unwrap();
            f.sync().unwrap();
            vfs.arm(CrashPlan { at_op: 2, seed });
            f.write_at(7, b" buffered").unwrap();
            assert!(matches!(f.sync(), Err(DiskError::Crashed)));
            assert!(vfs.crashed());
            let survivor = vfs.survivor();
            let f2 = survivor.open("wal").unwrap();
            let len = f2.len().unwrap();
            // The synced prefix always survives; the tail may be
            // missing, torn, or bit-flipped — never longer than written.
            assert!((7..=16).contains(&len), "seed {seed}: len {len}");
            let mut head = [0u8; 7];
            f2.read_exact_at(0, &mut head).unwrap();
            if head != *b"durable" {
                // A bit flip may land in the in-flight write only — which
                // starts at offset 7 — so the head must be intact.
                panic!("seed {seed}: synced bytes were damaged: {head:?}");
            }
        }
    }

    #[test]
    fn synced_data_always_survives() {
        // Whatever the in-flight write's fate (vanished, torn, flipped,
        // or fully flushed by the page cache), the synced prefix is
        // untouchable.
        for seed in 0..32u64 {
            let vfs = MemVfs::new();
            let mut f = vfs.open("data").unwrap();
            f.write_at(0, b"abc").unwrap();
            f.sync().unwrap();
            vfs.arm(CrashPlan { at_op: 1, seed });
            assert!(matches!(f.write_at(3, b"xyz"), Err(DiskError::Crashed)));
            let stable = vfs.survivor().stable_bytes("data").unwrap();
            assert!(stable.len() >= 3, "seed {seed}: synced bytes shrank");
            assert_eq!(&stable[..3], b"abc", "seed {seed}: synced bytes damaged");
        }
    }

    #[test]
    fn crash_is_deterministic_per_seed() {
        let run = |seed| {
            let vfs = MemVfs::new();
            let mut f = vfs.open("wal").unwrap();
            vfs.arm(CrashPlan { at_op: 4, seed });
            for i in 0..8u8 {
                if f.write_at(i as u64 * 3, &[i; 3]).is_err() {
                    break;
                }
            }
            vfs.survivor().stable_bytes("wal").unwrap()
        };
        assert_eq!(run(7), run(7));
        // Different seeds explore different outcomes (overwhelmingly).
        let distinct: std::collections::HashSet<Vec<u8>> = (0..16).map(run).collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn file_vfs_round_trips() {
        let dir = std::env::temp_dir().join(format!("rocks-sql-disktest-{}", std::process::id()));
        let vfs = FileVfs::new(&dir).unwrap();
        let mut f = vfs.open("data").unwrap();
        f.truncate(0).unwrap();
        f.write_at(0, b"persisted").unwrap();
        f.sync().unwrap();
        let f2 = vfs.open("data").unwrap();
        let mut buf = [0u8; 9];
        f2.read_exact_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"persisted");
        std::fs::remove_dir_all(&dir).ok();
    }
}
