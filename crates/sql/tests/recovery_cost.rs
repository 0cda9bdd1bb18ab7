//! Cost-follows-rows gate of recovery and of the INSERT path. A counting
//! global allocator tallies, per thread, the heap allocations the calling
//! thread asks for, so the gate counts instead of timing.
//!
//! Reopening a checkpointed `nodes` table (8 columns, 4 of them TEXT)
//! must cost 5 allocations per row beyond its page reads: the row's one
//! `Vec` and one `String` per TEXT cell. Between 1,024 and 16,384 rows
//! that is 77,751 allocations for 15,360 rows on 468 pages (5.06 a row
//! all in, about 2 a page). Before rows decoded into a `Vec` sized by
//! their cell count and were coerced within it, the same open cost
//! 123,831 (8.06 a row): the decoded `Vec` grew 4 → 8 through `collect`
//! (one allocation more), and staging collected it into a second one
//! that grew the same way (two more).
//! One warm `nodes` INSERT inside an open transaction cost 32 allocations
//! then, two of them that second `Vec`; it costs 30.

use rocks_sql::pager::PAGE_SIZE;
use rocks_sql::{DurableDatabase, MemVfs};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting `alloc`, `alloc_zeroed` and `realloc`
/// calls per thread.
struct Counting;

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the count is a
// const-initialized thread-local `Cell`, which itself never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` cost the calling thread in allocations.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

const NODES: &str = "create table nodes (id int, mac text, name text, membership int, \
                     rack int, rank int, ip text, comment text)";

/// Row `id` of `nodes`, every TEXT cell set.
fn node(id: usize) -> String {
    format!(
        "({id}, '00:16:3e:00:{:02x}:{:02x}', 'compute-{:05}', 2, {}, {}, '10.1.{}.{}', 'rack {}')",
        id >> 8 & 255,
        id & 255,
        id,
        id / 32,
        id % 32,
        id >> 8 & 255,
        id & 255,
        id / 32
    )
}

/// A store holding `rows` nodes in its snapshot and nothing in its log.
fn checkpointed(rows: usize) -> MemVfs {
    let vfs = MemVfs::new();
    let mut db = DurableDatabase::open(&vfs).unwrap();
    db.execute(NODES).unwrap();
    db.begin().unwrap();
    for chunk in (0..rows).collect::<Vec<_>>().chunks(512) {
        let values: Vec<String> = chunk.iter().map(|&id| node(id)).collect();
        db.execute(&format!("insert into nodes values {}", values.join(", "))).unwrap();
    }
    db.commit().unwrap();
    db.checkpoint().unwrap();
    vfs
}

/// Allocations of one recovered row: its `Vec` and its four `String`s.
const ROW_ALLOCATIONS: u64 = 1 + 4;

/// Allocations of one page read beyond its rows, at most: the page's
/// buffer, the leaf's cell list (an internal page's key and child
/// lists), and the growth of the lists the loader keeps per page.
const PAGE_ALLOCATIONS: u64 = 3;

/// Allocations of a warm one-row `nodes` INSERT in an open transaction:
/// parsing, the row's `Vec` and strings, the statement's log record.
/// Staging adds none.
const INSERT_ALLOCATIONS: u64 = 30;

#[test]
fn a_restart_builds_each_row_once() {
    let mut opens = Vec::new();
    for rows in [1_024u64, 16_384] {
        let vfs = checkpointed(rows as usize);
        let pages = vfs.stable_bytes("data").unwrap().len() as u64 / PAGE_SIZE as u64 - 1;
        let (db, cost) = allocations(|| DurableDatabase::open(&vfs).unwrap());
        assert_eq!(db.recovery_report().commits_replayed, 0, "{rows} rows: the log is empty");
        assert_eq!(db.reader().table("nodes").unwrap().len() as u64, rows);
        opens.push((rows, pages, cost));
    }
    let [(small_rows, small_pages, small), (rows, pages, cost)] = opens[..] else { unreachable!() };
    let (rows, pages, cost) = (rows - small_rows, pages - small_pages, cost - small);
    let beyond_rows = cost.checked_sub(ROW_ALLOCATIONS * rows).unwrap_or_else(|| {
        panic!("{cost} allocations for {rows} more rows, fewer than {ROW_ALLOCATIONS} a row")
    });
    assert!(
        beyond_rows <= PAGE_ALLOCATIONS * pages,
        "{cost} allocations for {rows} more rows on {pages} more pages: \
         {beyond_rows} beyond {ROW_ALLOCATIONS} a row, more than {PAGE_ALLOCATIONS} a page"
    );
}

#[test]
fn an_insert_stages_its_row_in_the_vec_it_parsed() {
    let vfs = checkpointed(1_024);
    let mut db = DurableDatabase::open(&vfs).unwrap();
    db.begin().unwrap();
    // Warm: the transaction's first statement sizes its buffers.
    db.execute(&format!("insert into nodes values {}", node(1_024))).unwrap();
    let insert = format!("insert into nodes values {}", node(1_025));
    let (_, cost) = allocations(|| db.execute(&insert).unwrap());
    assert_eq!(cost, INSERT_ALLOCATIONS, "one nodes INSERT in an open transaction");
}
