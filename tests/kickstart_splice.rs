//! Warm ≡ cold over hostile inputs: every body the generation service
//! serves — per request, from `generate_all`, and
//! through the serving frontend's `RealBackend` — equals the cold
//! generator's `generate_for_request(..).render()` byte for byte.
//!
//! The matrix is seeded: every appliance root of the profile set × every
//! architecture × the public hostname unset, set, and changed mid-run,
//! with plain and hostile node and membership names, on the default
//! profiles and on a site-customized set (a module adding `network`, one
//! adding `NETWORK`, a post quoting the localization header, a root with
//! no posts). Also pins the body hash, `serve::fnv64`.

use rocks::db::insert_ethers::register_frontend;
use rocks::db::{ClusterDb, Ipv4, Membership, NodeRecord};
use rocks::kickstart::{profiles, NodeFile, ProfileSet};
use rocks::rpm::Arch;
use rocks::serve::{fnv64, RealBackend, ServeBackend};
use rocks::{GenerationService, KickstartGenerator};

const ARCHES: [Arch; 6] =
    [Arch::I386, Arch::I686, Arch::Athlon, Arch::Ia64, Arch::Noarch, Arch::Src];

/// Names that a shell, a quote or the localization section's own
/// markers could trip over, plus plain ones.
fn names() -> Vec<String> {
    vec![
        "compute-0-0".into(),
        "O'Brien".into(),
        "a b".into(),
        "$(reboot)".into(),
        "ü-0-0".into(),
        "n".repeat(200),
        "# --- end sql-localization ---".into(),
    ]
}

/// SplitMix64: the test's own seeded stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn node_file(name: &str, xml: &str) -> NodeFile {
    NodeFile::parse(name, xml).expect("test node file is valid")
}

/// The default profiles plus site customizations that sit on the
/// localization's path.
fn customized() -> ProfileSet {
    let mut set = profiles::default_profiles();
    set.add_node_file(node_file(
        "site-network",
        "<kickstart><main><network>--bootproto static --device eth0</network></main></kickstart>",
    ));
    set.add_node_file(node_file(
        "site-network-upper",
        "<kickstart><main><NETWORK>--device eth1</NETWORK></main></kickstart>",
    ));
    set.add_node_file(node_file(
        "site-echo",
        "<kickstart><post>echo '# --- end sql-localization ---'\n\
         # Node localization from the cluster database\nexport NODE_NAME=spoofed</post></kickstart>",
    ));
    set.add_node_file(node_file("bare", "<kickstart><package>bare-tools</package></kickstart>"));
    set.add_node_file(node_file(
        "bare-disk",
        "<kickstart><package>bare-disk</package></kickstart>",
    ));
    set.graph.add_edge("compute", "site-network");
    set.graph.add_edge("nfs-server", "site-network-upper");
    set.graph.add_edge("frontend", "site-echo");
    set.graph.add_edge("bare", "bare-disk");
    set
}

/// The frontend plus, for every graph root, one membership per name in
/// [`names`] and one node in each, the node names rotated by the seed.
fn cluster(set: &ProfileSet, seed: u64) -> ClusterDb {
    let mut db = ClusterDb::new();
    register_frontend(&mut db, "00:30:c1:d8:ac:80", "frontend-0").unwrap();
    let names = names();
    let mut rng = Rng(seed);
    let mut next_id = 10i64;
    for (r, root) in set.graph.roots().into_iter().enumerate() {
        let appliance = 10 + r as i64;
        db.execute_raw(&format!("insert into appliances values ({appliance}, '{root}', '{root}')"))
            .unwrap();
        let offset = rng.below(names.len());
        for (m, membership) in names.iter().enumerate() {
            let id = 100 + (r * names.len() + m) as i64;
            db.add_membership(&Membership {
                id,
                name: membership.clone(),
                appliance,
                compute: true,
                basename: "site".into(),
            })
            .unwrap();
            next_id += 1;
            let node = &names[(m + offset) % names.len()];
            db.add_node(&NodeRecord::new(
                next_id,
                &format!("00:50:8b:aa:{:02x}:{:02x}", next_id / 256, next_id % 256),
                node,
                id,
                r as i64,
                m as i64,
                Ipv4::new(10, 250, r as u8, m as u8 + 1),
            ))
            .unwrap();
        }
    }
    db
}

fn service(set: ProfileSet) -> GenerationService {
    GenerationService::new(KickstartGenerator::new(set, "10.1.1.1", "install/rocks-dist"))
}

/// The cold generator's body for every target, in target order.
fn cold_bodies(svc: &GenerationService, db: &ClusterDb, ips: &[String], arch: Arch) -> Vec<String> {
    ips.iter()
        .map(|ip| svc.generator().generate_for_request(db, ip, arch).unwrap().render())
        .collect()
}

fn target_ips(db: &ClusterDb) -> Vec<String> {
    db.kickstart_targets().unwrap().into_iter().map(|t| t.ip).collect()
}

/// Every warm path against the cold bodies under the database as it is.
fn check_every_path(svc: &GenerationService, db: &ClusterDb, arch: Arch, what: &str) {
    let ips = target_ips(db);
    let cold = cold_bodies(svc, db, &ips, arch);
    // Twice: the first pass may build skeletons, the second is all hits.
    for pass in 0..2 {
        for (ip, cold) in ips.iter().zip(&cold) {
            let warm = svc.generate_for_request(db, ip, arch).unwrap().render();
            assert_eq!(&warm, cold, "{what}: request pass {pass} for {ip}");
        }
    }
    let all = svc.generate_all(db, arch, 1).unwrap();
    assert_eq!(all.len(), cold.len(), "{what}: generate_all");
    for ((profile, ip), cold) in all.iter().zip(&ips).zip(&cold) {
        assert_eq!(&profile.ip, ip, "{what}: generate_all order");
        assert_eq!(&profile.kickstart.render(), cold, "{what}: generate_all for {}", profile.node);
    }
    let mut backend = RealBackend::new(svc, db, arch).unwrap();
    for (key, cold) in cold.iter().enumerate() {
        let body = backend.install(key).body.expect("the real backend renders bodies");
        assert_eq!(&body, cold, "{what}: served body for {}", ips[key]);
    }
}

/// Serve half the targets, change the public hostname, then serve every
/// target again against the cold bodies of the changed database.
fn check_mid_run_change(svc: &GenerationService, db: &mut ClusterDb, arch: Arch, public: &str) {
    let ips = target_ips(db);
    let before = cold_bodies(svc, db, &ips, arch);
    let half = ips.len() / 2;
    for (ip, cold) in ips[..half].iter().zip(&before) {
        assert_eq!(&svc.generate_for_request(db, ip, arch).unwrap().render(), cold);
    }
    db.set_global("Kickstart_PublicHostname", public).unwrap();
    let after = cold_bodies(svc, db, &ips, arch);
    for i in (half..ips.len()).chain(0..half) {
        let warm = svc.generate_for_request(db, &ips[i], arch).unwrap().render();
        assert_eq!(warm, after[i], "{arch} after the change to {public:?}, {}", ips[i]);
    }
}

/// One service and one database throughout, so slots of every root and
/// architecture sit side by side in the cache between writes.
fn run_matrix(set: fn() -> ProfileSet, seed: u64) {
    let svc = service(set());
    let mut db = cluster(&set(), seed);
    for arch in ARCHES {
        check_every_path(&svc, &db, arch, &format!("{arch}, public hostname unset"));
    }
    db.set_global("Kickstart_PublicHostname", "meteor.sdsc.edu").unwrap();
    for arch in ARCHES {
        check_every_path(&svc, &db, arch, &format!("{arch}, public hostname set"));
    }
    for (a, arch) in ARCHES.into_iter().enumerate() {
        check_mid_run_change(&svc, &mut db, arch, &format!("$(reboot) O'Brien-{a}.example"));
    }
    for arch in ARCHES {
        check_every_path(&svc, &db, arch, &format!("{arch}, public hostname changed"));
    }
}

#[test]
fn default_profiles_warm_bodies_equal_cold_bodies() {
    run_matrix(profiles::default_profiles, 1);
}

#[test]
fn customized_profiles_warm_bodies_equal_cold_bodies() {
    let set = customized();
    assert!(set.graph.roots().contains(&"bare"), "the post-less root is an appliance");
    run_matrix(customized, 2);
}

/// Byte-wise FNV-1a, the reference `fnv64` must equal below one word.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3))
}

#[test]
fn fnv64_is_fnv1a_below_one_word() {
    let mut rng = Rng(7);
    for len in 0..8 {
        for _ in 0..64 {
            let bytes: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
            assert_eq!(fnv64(&bytes), fnv1a(&bytes), "{bytes:?}");
        }
    }
}

#[test]
fn fnv64_sees_every_single_byte_flip_of_a_body() {
    let db = cluster(&profiles::default_profiles(), 3);
    let svc = service(profiles::default_profiles());
    let ip = &target_ips(&db)[0];
    let mut body = svc.generate_for_request(&db, ip, Arch::I686).unwrap().render().into_bytes();
    body.resize(3_367, b'#');
    let hash = fnv64(&body);
    let mut rng = Rng(11);
    for _ in 0..1_000 {
        let (at, mask) = (rng.below(body.len()), 1 + rng.below(255) as u8);
        body[at] ^= mask;
        assert_ne!(fnv64(&body), hash, "flipping byte {at} by {mask:#04x} left the hash unchanged");
        body[at] ^= mask;
    }
}
