//! Allocation gate of the warm kickstart path. A counting global
//! allocator tallies, per thread, every heap allocation the calling
//! thread makes, so the gate counts instead of timing, and test threads
//! running side by side do not see each other's allocations.
//!
//! A warm request resolves its node by borrowing three names from the
//! tables and splices them into a cached template: a fixed handful of
//! allocations, the same in a cluster of 16 nodes and one of 1,024. When
//! `Database::lookup_eq` cloned every matching row into a `QueryResult`
//! and the typed accessors rendered the cells into records, the same
//! request made 51 (56 with the public hostname set), and
//! `kickstart_targets` made 12.2 per target at 1,024 nodes.

use rocks::db::insert_ethers::{register_frontend, DhcpRequest, InsertEthers};
use rocks::db::ClusterDb;
use rocks::kickstart::profiles;
use rocks::rpm::Arch;
use rocks::{GenerationService, KickstartGenerator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations of one warm request with the public hostname unset: the
/// requesting address as a probe key, three borrowed-row lists, the
/// public-hostname key, and the body.
const WARM_REQUEST: u64 = 6;

/// ... and set: its row list and its value are two more.
const WARM_REQUEST_WITH_PUBLIC_HOSTNAME: u64 = 8;

/// Allocations of `kickstart_targets` at 16 and at 1,024 compute nodes
/// (plus the frontend).
const TARGETS: [(usize, u64); 2] = [(16, 199), (1_024, 7_262)];

/// The most allocations a warm request, and `kickstart_targets` per
/// target at 1,024 nodes, may make.
const CEILING: u64 = 8;

const _: () = assert!(WARM_REQUEST_WITH_PUBLIC_HOSTNAME <= CEILING);

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

/// `f`'s result and the allocations the calling thread made inside it.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

fn service() -> GenerationService {
    GenerationService::new(KickstartGenerator::new(
        profiles::default_profiles(),
        "10.1.1.1",
        "install/rocks-dist",
    ))
}

/// The frontend and `computes` compute nodes.
fn cluster(computes: usize) -> ClusterDb {
    let mut db = ClusterDb::new();
    register_frontend(&mut db, "00:30:c1:d8:ac:80", "frontend-0").unwrap();
    let mut session = InsertEthers::start(&mut db, "Compute", 0).unwrap();
    for i in 0..computes {
        session
            .observe(&DhcpRequest { mac: format!("00:50:8b:e0:{:02x}:{:02x}", i / 256, i % 256) })
            .unwrap();
    }
    db
}

/// Every target's warm request must allocate exactly `expected` times.
fn assert_warm_requests_allocate(svc: &GenerationService, db: &ClusterDb, expected: u64) {
    let ips: Vec<String> = db.kickstart_targets().unwrap().into_iter().map(|t| t.ip).collect();
    // Warm: every skeleton and every index the resolve probes built.
    for ip in &ips {
        svc.generate_for_request(db, ip, Arch::I686).unwrap();
    }
    for ip in &ips {
        let (_, n) = allocations(|| svc.generate_for_request(db, ip, Arch::I686).unwrap());
        assert_eq!(n, expected, "{} targets: allocations of the warm request for {ip}", ips.len());
    }
}

#[test]
fn a_warm_request_allocates_a_fixed_handful_at_any_cluster_size() {
    for computes in [16, 1_024] {
        let mut db = cluster(computes);
        let svc = service();
        assert_warm_requests_allocate(&svc, &db, WARM_REQUEST);
        db.set_global("Kickstart_PublicHostname", "meteor.sdsc.edu").unwrap();
        assert_warm_requests_allocate(&svc, &db, WARM_REQUEST_WITH_PUBLIC_HOSTNAME);
    }
}

#[test]
fn kickstart_targets_allocates_a_few_times_per_target() {
    for (computes, expected) in TARGETS {
        let db = cluster(computes);
        db.kickstart_targets().unwrap();
        let (targets, n) = allocations(|| db.kickstart_targets().unwrap());
        assert_eq!(targets.len(), computes + 1);
        assert_eq!(n, expected, "{computes} nodes: allocations of kickstart_targets");
    }
    let (computes, total) = TARGETS[1];
    assert!(total <= CEILING * (computes as u64 + 1), "{total} allocations for {computes} nodes");
}
