//! The parallel, cache-aware Kickstart generation service, end to end:
//! cold, cached, and worker-pool generation must be byte-identical per
//! node; a cluster-database write must leave every cached skeleton warm
//! and still never serve a stale profile; a rocks-dist rebuild must
//! regenerate them.

use proptest::prelude::*;
use rocks::db::insert_ethers::{register_frontend, replace_node, DhcpRequest, InsertEthers};
use rocks::db::{ClusterDb, Ipv4, NodeRecord};
use rocks::kickstart::profiles;
use rocks::rpm::Arch;
use rocks::{GenerationService, KickstartGenerator};

fn service() -> GenerationService {
    GenerationService::new(KickstartGenerator::new(
        profiles::default_profiles(),
        "10.1.1.1",
        "install/rocks-dist",
    ))
}

/// The membership of the NFS appliance (appliance 3, the nfs-server graph
/// root); none of the default memberships is one.
const NFS: i64 = 7;

/// Frontend + `computes` compute nodes + one NFS appliance node, so the
/// cache has three distinct skeletons to keep separate.
fn cluster(computes: usize) -> ClusterDb {
    let mut db = ClusterDb::new();
    register_frontend(&mut db, "00:30:c1:d8:ac:80", "frontend-0").unwrap();
    let mut session = InsertEthers::start(&mut db, "Compute", 0).unwrap();
    for i in 0..computes {
        session
            .observe(&DhcpRequest { mac: format!("00:50:8b:e0:{:02x}:{:02x}", i / 256, i % 256) })
            .unwrap();
    }
    db.add_membership(&rocks::db::Membership {
        id: NFS,
        name: "NFS".into(),
        appliance: 3,
        compute: false,
        basename: "nfs".into(),
    })
    .unwrap();
    db.add_node(&NodeRecord::new(
        500,
        "00:50:8b:ff:00:01",
        "nfs-0-0",
        NFS,
        0,
        500,
        Ipv4::new(10, 254, 0, 1),
    ))
    .unwrap();
    db
}

/// The paper's per-request CGI path, no caching anywhere.
fn cold(svc: &GenerationService, db: &ClusterDb, ip: &str, arch: Arch) -> String {
    svc.generator().generate_for_request(db, ip, arch).unwrap().render()
}

/// Every profile the service can serve now — per request, and from
/// `generate_all` at 1 and 2 threads, on two architectures — equals the
/// cold generator's.
fn assert_warm_equals_cold(svc: &GenerationService, db: &ClusterDb, at: &str) {
    let targets = db.kickstart_targets().unwrap();
    for arch in [Arch::I686, Arch::Ia64] {
        let cold: Vec<String> = targets.iter().map(|t| cold(svc, db, &t.ip, arch)).collect();
        for (target, cold) in targets.iter().zip(&cold) {
            let warm = svc.generate_for_request(db, &target.ip, arch).unwrap();
            assert_eq!(warm.as_str(), cold, "{at}: stale {arch:?} request for {}", target.name);
        }
        for threads in [1, 2] {
            let profiles = svc.generate_all(db, arch, threads).unwrap();
            assert_eq!(profiles.len(), targets.len(), "{at}");
            for ((profile, target), cold) in profiles.iter().zip(&targets).zip(&cold) {
                assert_eq!(profile.node, target.name, "{at}: {threads}-thread ordering");
                assert_eq!(
                    profile.kickstart.as_str(),
                    cold,
                    "{at}: stale {arch:?} {threads}-thread profile for {}",
                    target.name
                );
            }
        }
    }
}

#[test]
fn cold_cached_and_parallel_generation_are_byte_identical() {
    let db = cluster(24);
    let svc = service();
    let cold_generator =
        KickstartGenerator::new(profiles::default_profiles(), "10.1.1.1", "install/rocks-dist");

    // Reference: the paper's per-request CGI path, no caching anywhere.
    let mut cold: Vec<(String, String)> = db
        .nodes()
        .unwrap()
        .iter()
        .map(|n| {
            let ks =
                cold_generator.generate_for_request(&db, &n.ip.to_string(), Arch::I686).unwrap();
            (n.name.clone(), ks.render())
        })
        .collect();
    cold.sort();

    // Cached per-request path: first pass fills the cache, second pass is
    // served from it; both must match the cold bytes.
    for pass in 0..2 {
        for node in db.nodes().unwrap() {
            let ks = svc.generate_for_request(&db, &node.ip.to_string(), Arch::I686).unwrap();
            let reference = &cold.iter().find(|(name, _)| *name == node.name).unwrap().1;
            assert_eq!(&ks.render(), reference, "pass {pass}, node {}", node.name);
        }
    }
    assert!(svc.stats().hits() > 0, "second pass must hit the cache");

    // Mass generation, sequential and with an 8-thread worker pool.
    for threads in [1usize, 8] {
        let profiles = svc.generate_all(&db, Arch::I686, threads).unwrap();
        assert_eq!(profiles.len(), cold.len());
        for (profile, (name, reference)) in profiles.iter().zip(cold.iter()) {
            assert_eq!(&profile.node, name, "{threads}-thread ordering");
            assert_eq!(&profile.kickstart.render(), reference, "{threads}-thread bytes");
        }
    }
}

#[test]
fn membership_and_node_writes_leave_skeletons_warm() {
    let mut db = cluster(2);
    let svc = service();
    svc.generate_all(&db, Arch::I686, 2).unwrap();
    let built = svc.stats().misses();

    // A new membership of the NFS appliance, then a node in it: the
    // membership name reaches the body through the splice, not the
    // skeleton.
    db.add_membership(&rocks::db::Membership {
        id: 10,
        name: "Storage".into(),
        appliance: 3,
        compute: false,
        basename: "storage".into(),
    })
    .unwrap();
    assert_warm_equals_cold(&svc, &db, "after the memberships write");
    db.add_node(&NodeRecord::new(
        600,
        "00:50:8b:ff:00:02",
        "storage-0-0",
        10,
        0,
        600,
        Ipv4::new(10, 254, 0, 2),
    ))
    .unwrap();
    let storage = svc.generate_for_request(&db, "10.254.0.2", Arch::I686).unwrap();
    assert!(storage.as_str().contains("\nexport NODE_MEMBERSHIP='Storage'\n"));
    assert_eq!(storage.as_str(), cold(&svc, &db, "10.254.0.2", Arch::I686));
    let profiles = svc.generate_all(&db, Arch::I686, 2).unwrap();
    assert!(profiles.iter().any(|p| p.node == "storage-0-0"), "new node gets a profile");
    assert_warm_equals_cold(&svc, &db, "after the nodes write");

    // Every I686 skeleton was built before the writes; the checks above
    // built the Ia64 ones, once each.
    assert_eq!(svc.stats().misses(), built * 2, "a database write rebuilt a skeleton");
    assert_eq!(svc.stats().invalidations(), 0, "a database write evicted a skeleton");
}

#[test]
fn dist_rebuild_regenerates_profiles() {
    let db = cluster(2);
    let svc = service();
    svc.generate_all(&db, Arch::I686, 2).unwrap();
    let misses_cold = svc.stats().misses();

    svc.notify_dist_rebuilt();
    svc.generate_all(&db, Arch::I686, 2).unwrap();
    assert!(svc.stats().misses() > misses_cold, "dist rebuild must force regeneration");
    assert!(svc.stats().invalidations() > 0);
}

/// The gate counts instead of timing, like `derived_state`'s
/// `observe_costs_the_change_not_the_table`: once every skeleton is
/// warm, 64 rounds of [insert-ethers integrates a node, then the new node
/// and an old one fetch their kickstarts] build and evict no skeleton, in
/// a cluster of 16 nodes and one of 1,024 alike.
#[test]
fn insert_ethers_writes_build_no_skeleton() {
    let counts = [16usize, 1_024].map(|computes| {
        let mut db = cluster(computes);
        let svc = service();
        svc.generate_all(&db, Arch::I686, 1).unwrap();
        let (misses, hits) = (svc.stats().misses(), svc.stats().hits());
        let old = db.kickstart_targets().unwrap();
        for i in 0..64 {
            let mac = format!("00:77:00:00:00:{i:02x}");
            let mut session = InsertEthers::start(&mut db, "Compute", 1).unwrap();
            let new = session.observe(&DhcpRequest { mac }).unwrap().unwrap();
            for ip in [new.ip.to_string(), old[i * 7 % old.len()].ip.clone()] {
                let warm = svc.generate_for_request(&db, &ip, Arch::I686).unwrap();
                assert_eq!(warm.as_str(), cold(&svc, &db, &ip, Arch::I686), "{computes}: {ip}");
            }
        }
        let stats = svc.stats();
        [stats.misses() - misses, stats.invalidations(), stats.hits() - hits]
    });
    assert_eq!(counts[0], counts[1], "[builds, evictions, hits] of 64 writes, by cluster size");
    assert_eq!(counts[0], [0, 0, 128], "[builds, evictions, hits] of 64 writes");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random interleavings of cluster writes — including every kind that
    /// changes what a request resolves — dist rebuilds and requests: the
    /// service must never serve a profile that differs from what a fresh
    /// cold generation would produce *now*.
    #[test]
    fn interleaved_mutations_never_serve_stale_profiles(
        ops in proptest::collection::vec(0u8..9, 1..16)
    ) {
        let mut db = cluster(2);
        let svc = service();
        let mut next_id = 1000i64;
        let mut moved = false;
        // Node 2 is compute-0-0 until renamed; node 3 is compute-0-1.
        let name_of_node_2 = |db: &ClusterDb| {
            db.query_names("select name from nodes where id = 2").unwrap().remove(0)
        };

        for (step, op) in ops.into_iter().enumerate() {
            next_id += 1;
            match op {
                0 => {
                    // insert-ethers registers another compute node.
                    db.add_node(&NodeRecord::new(
                        next_id,
                        format!("00:99:00:{:02x}:{:02x}:01", (next_id / 256) % 256, next_id % 256).as_str(),
                        &format!("extra-0-{next_id}"),
                        2,
                        0,
                        next_id,
                        Ipv4::new(10, 200, ((next_id / 256) % 256) as u8, (next_id % 256) as u8),
                    )).unwrap();
                }
                1 => {
                    // A site-global edit (changes localization output).
                    db.set_global(
                        "Kickstart_PublicHostname",
                        &format!("frontend-{next_id}.example.org"),
                    ).unwrap();
                }
                2 => {
                    // rocks-dist rebuilt the repository.
                    svc.notify_dist_rebuilt();
                }
                3 => {
                    // A burst of individual CGI requests.
                    for node in db.compute_nodes().unwrap().iter().take(2) {
                        svc.generate_for_request(&db, &node.ip.to_string(), Arch::I686).unwrap();
                    }
                }
                4 => {
                    // Failed hardware swapped under the same identity.
                    let name = name_of_node_2(&db);
                    replace_node(&mut db, &name, &format!("00:98:00:00:{:02x}:{:02x}", next_id / 256 % 256, next_id % 256)).unwrap();
                }
                5 => {
                    // A node moves to the NFS membership (the nfs-server
                    // root) and back.
                    moved = !moved;
                    let membership = if moved { NFS } else { 2 };
                    db.execute_raw(&format!("update nodes set membership = {membership} where id = 3")).unwrap();
                }
                6 => {
                    // The compute appliance is re-rooted.
                    let root = ["nfs-server", "frontend", "compute"][next_id as usize % 3];
                    db.execute_raw(&format!("update appliances set graph_node = '{root}' where id = 2")).unwrap();
                }
                7 => {
                    db.execute_raw(&format!("update nodes set name = 'renamed-{next_id}' where id = 2")).unwrap();
                }
                _ => {
                    // Writes inside a transaction are served while it is
                    // open, then rolled back.
                    db.begin_txn().unwrap();
                    db.execute_raw(&format!("update nodes set name = 'provisional-{next_id}' where id = 3")).unwrap();
                    db.execute_raw("update appliances set graph_node = 'nfs-server' where id = 1").unwrap();
                    db.set_global("Kickstart_PublicHostname", "provisional.example.org").unwrap();
                    assert_warm_equals_cold(&svc, &db, &format!("step {step}, open transaction"));
                    db.rollback_txn().unwrap();
                }
            }
            assert_warm_equals_cold(&svc, &db, &format!("step {step}, op {op}"));
        }

        prop_assert!(svc.stats().hits() + svc.stats().misses() > 0);
    }
}
