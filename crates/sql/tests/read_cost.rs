//! Cost-follows-result gate of the `--query=` read path. A counting
//! global allocator tallies, per thread, the heap allocations and bytes
//! the calling thread asks for, so the gate counts instead of timing, and
//! test threads running side by side do not see each other's allocations.
//!
//! A warm 32-row rack lookup through `query_column_ref` and a WHERE-less
//! `count(*)` must cost the same at 1,024 and at 16,384 nodes: the first
//! renders 32 names straight into their strings, the second reads the
//! table's length. When every planned step zeroed a table-sized filter
//! memo, the rack lookup's bytes grew with the table; when `count(*)`
//! enumerated row ids, its bytes and `rows_examined` did.

use rocks_sql::Database;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting `alloc`, `alloc_zeroed` and `realloc`
/// calls and the bytes each asks for, per thread.
struct Counting;

fn count(bytes: usize) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    BYTES.with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every call forwards to `System` unchanged; the counts are
// const-initialized thread-local `Cell`s, which themselves never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What one call cost the calling thread.
#[derive(Debug, PartialEq)]
struct Cost {
    allocations: u64,
    bytes: u64,
    rows_examined: u64,
}

fn cost<R>(db: &Database, f: impl FnOnce() -> R) -> (R, Cost) {
    let before = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get), db.stats().rows_examined());
    let out = f();
    let cost = Cost {
        allocations: ALLOCATIONS.with(Cell::get) - before.0,
        bytes: BYTES.with(Cell::get) - before.1,
        rows_examined: db.stats().rows_examined() - before.2,
    };
    (out, cost)
}

/// `nodes` nodes in racks of 32. Names are fixed-width, so a rack's
/// names are as long at any table size.
fn cluster(nodes: usize) -> Database {
    let mut db = Database::new();
    db.execute("create table nodes (id int, name text, membership int, rack int, rank int)")
        .unwrap();
    let ids: Vec<usize> = (0..nodes).collect();
    for chunk in ids.chunks(512) {
        let rows: Vec<String> = chunk
            .iter()
            .map(|i| format!("({i}, 'compute-{i:05}', {}, {}, {})", 2 + i % 3, i / 32, i % 32))
            .collect();
        db.execute(&format!("insert into nodes values {}", rows.join(", "))).unwrap();
    }
    db
}

const RACK: &str = "select name from nodes where rack = 17";
const COUNT: &str = "select count(*) from nodes";

/// Allocations of the warm rack lookup: its 32 names, the returned list,
/// the resolved FROM tables, the projected columns, and the plan's
/// execution-order tables and index hits. A plan that keeps FROM order
/// builds no slot map.
const RACK_ALLOCATIONS: u64 = 32 + 5;

/// ... and of the `count(*)`: the resolved FROM table, the result's
/// label list and label, its row list and its one row.
const COUNT_ALLOCATIONS: u64 = 5;

#[test]
fn a_read_costs_its_result_not_the_table() {
    let mut costs = Vec::new();
    for nodes in [1_024, 16_384] {
        let db = cluster(nodes);
        // Warm: plan each statement and build the index the rack probes.
        db.query_column_ref(RACK).unwrap();
        db.query_ref(COUNT).unwrap();

        let (names, rack) = cost(&db, || db.query_column_ref(RACK).unwrap());
        assert_eq!(names.len(), 32);
        assert_eq!(names[0], "compute-00544");
        assert_eq!(rack.allocations, RACK_ALLOCATIONS, "{nodes} nodes: rack lookup");
        // Through `query_ref`, whose count is an `Int` cell: rendered,
        // "1024" and "16384" would differ by a byte of result.
        let (count, count_cost) = cost(&db, || db.query_ref(COUNT).unwrap());
        assert_eq!(count.rows[0][0].as_int(), Some(nodes as i64));
        assert_eq!(count_cost.allocations, COUNT_ALLOCATIONS, "{nodes} nodes: count(*)");
        assert_eq!(count_cost.rows_examined, 0, "{nodes} nodes: count(*) examines no row");
        costs.push((rack, count_cost));
    }
    assert_eq!(costs[0], costs[1], "[1,024 nodes, 16,384 nodes]: (rack lookup, count(*))");
}
