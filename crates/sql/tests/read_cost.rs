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
//!
//! An index probe re-verifies its candidates only when it is inexact: a
//! probe with integer-shaped text, whose numeric bucket also holds other
//! spellings. `sql.rows.rechecked` counts those candidates, so the rack
//! lookup, the `order by` read and the broad join recheck none, and
//! `tag = '5'` rechecks every candidate, at either size.

use rocks_sql::{Database, Value};
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

/// What one call added to the row counters.
#[derive(Debug, PartialEq)]
struct Rows {
    examined: u64,
    rechecked: u64,
    returned: u64,
}

fn rows<R>(db: &Database, f: impl FnOnce() -> R) -> Rows {
    let s = db.stats();
    let before = (s.rows_examined(), s.rows_rechecked(), s.rows_returned());
    f();
    Rows {
        examined: s.rows_examined() - before.0,
        rechecked: s.rows_rechecked() - before.1,
        returned: s.rows_returned() - before.2,
    }
}

/// [`cluster`] plus three memberships, two of them compute, and a `tags`
/// table whose `tag` holds `'5'`, `'05'`, `' 5'` and `5` (stored as
/// `'5'`) for four nodes in 32 and a distinct name for the rest.
fn tagged_cluster(nodes: usize) -> Database {
    let mut db = cluster(nodes);
    db.execute("create table memberships (id int, name text, compute text)").unwrap();
    db.execute(
        "insert into memberships values (2, 'Compute', 'yes'), (3, 'Storage', 'yes'), \
         (4, 'Login', 'no')",
    )
    .unwrap();
    db.execute("create table tags (node int, tag text)").unwrap();
    let ids: Vec<usize> = (0..nodes).collect();
    for chunk in ids.chunks(512) {
        let rows: Vec<String> = chunk
            .iter()
            .map(|i| match i % 32 {
                0 => format!("({i}, '5')"),
                1 => format!("({i}, '05')"),
                2 => format!("({i}, ' 5')"),
                3 => format!("({i}, 5)"),
                _ => format!("({i}, 'n{i}')"),
            })
            .collect();
        db.execute(&format!("insert into tags values {}", rows.join(", "))).unwrap();
    }
    db
}

const ORDER_BY: &str = "select rack from nodes where rank = 0 order by rack";
const BROAD_JOIN: &str = "select nodes.name from nodes, memberships where \
                          nodes.membership = memberships.id and memberships.compute = 'yes'";
const TAG: &str = "select node from tags where tag = '5'";

#[test]
fn exact_probes_recheck_no_candidate() {
    for nodes in [1_024, 16_384] {
        let db = tagged_cluster(nodes);
        for sql in [RACK, ORDER_BY, BROAD_JOIN, TAG] {
            db.query_column_ref(sql).unwrap(); // warm: plan, build indexes
        }
        let n = nodes as u64;
        let rack = rows(&db, || db.query_column_ref(RACK).unwrap());
        assert_eq!(rack, Rows { examined: 32, rechecked: 0, returned: 32 }, "{nodes} nodes: rack");
        let order_by = rows(&db, || db.query_column_ref(ORDER_BY).unwrap());
        let racks = n / 32;
        assert_eq!(
            order_by,
            Rows { examined: racks, rechecked: 0, returned: racks },
            "{nodes} nodes: order by"
        );
        let join = rows(&db, || db.query_column_ref(BROAD_JOIN).unwrap());
        assert_eq!(join.rechecked, 0, "{nodes} nodes: broad join {join:?}");
        assert_eq!(join.returned, (0..n).filter(|i| i % 3 != 2).count() as u64);
        // '5' reads the four spellings of five, and keeps '5' and 5.
        let tag = rows(&db, || db.query_column_ref(TAG).unwrap());
        let (candidates, equal) = (n / 8, n / 16);
        assert_eq!(
            tag,
            Rows { examined: candidates, rechecked: candidates, returned: equal },
            "{nodes} nodes: tag = '5'"
        );
        let five = Value::Text("5".into());
        let lookup = rows(&db, || db.lookup_eq("tags", "tag", &five).unwrap());
        assert_eq!(
            lookup,
            Rows { examined: candidates, rechecked: candidates, returned: equal },
            "{nodes} nodes: lookup_eq(tag, '5')"
        );
        let lookup = rows(&db, || db.lookup_eq("tags", "tag", &Value::Int(5)).unwrap());
        assert_eq!(
            lookup,
            Rows { examined: candidates, rechecked: 0, returned: candidates },
            "{nodes} nodes: lookup_eq(tag, 5)"
        );
    }
}
