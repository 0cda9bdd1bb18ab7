//! End-to-end bring-up: frontend install → insert-ethers integration →
//! per-node kickstart → whole-cluster reinstall → consistency.

use rocks::core::Cluster;
use rocks::rpm::Arch;

fn macs(rack: u8, n: usize) -> Vec<String> {
    (0..n).map(|i| format!("00:50:8b:{rack:02x}:00:{i:02x}")).collect()
}

#[test]
fn frontend_plus_sixteen_nodes() {
    let mut cluster = Cluster::install_frontend("00:30:c1:d8:ac:80", 21).unwrap();
    let a = cluster.integrate_rack("Compute", 0, &macs(0, 8)).unwrap();
    let b = cluster.integrate_rack("Compute", 1, &macs(1, 8)).unwrap();
    assert_eq!(a.len() + b.len(), 16);

    // Names follow <basename>-<rack>-<rank>.
    assert!(a.iter().all(|r| r.name.starts_with("compute-0-")));
    assert!(b.iter().all(|r| r.name.starts_with("compute-1-")));

    // Every node is freshly installed and consistent.
    assert!(cluster.inconsistent_nodes().unwrap().is_empty());

    // Reports list all 17 machines (frontend + 16).
    let reports = cluster.reports().unwrap();
    assert_eq!(reports.dhcpd_conf.matches("host ").count(), 17);
    assert_eq!(reports.pbs_nodes.lines().count(), 16);

    // Each node gets a correct kickstart from its own address, served
    // through the caching generation service.
    for record in cluster.db.compute_nodes().unwrap() {
        let ks = cluster
            .kickstart
            .generate_for_request(&cluster.db, &record.ip.to_string(), Arch::I686)
            .unwrap();
        let text = ks.as_str();
        assert!(text.contains(&format!("--hostname {}", record.name)));
        let packages = text.split("\n%packages\n").nth(1).unwrap().split("\n\n").next().unwrap();
        assert_eq!(packages.lines().count(), rocks::rpm::synth::COMPUTE_PACKAGE_COUNT);
    }
}

#[test]
fn every_node_image_matches_distribution_after_reinstall() {
    let mut cluster = Cluster::install_frontend("00:30:c1:d8:ac:80", 3).unwrap();
    cluster.integrate_rack("Compute", 0, &macs(0, 4)).unwrap();

    // Wreck two nodes in different ways.
    cluster.inject_drift("compute-0-0", "/etc/securetty").unwrap();
    cluster.inject_drift("compute-0-3", "glibc").unwrap();
    assert_eq!(cluster.inconsistent_nodes().unwrap().len(), 2);

    let report = cluster.reinstall_all().unwrap();
    assert_eq!(report.nodes.len(), 4);
    // Concurrent wave: total ≈ one install, not 4×.
    let slowest = report.per_node_minutes.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    assert!(report.total_minutes <= slowest + 0.1);
    assert!(cluster.inconsistent_nodes().unwrap().is_empty());
}

#[test]
fn services_are_rewired_after_reinstall() {
    let mut cluster = Cluster::install_frontend("00:30:c1:d8:ac:80", 5).unwrap();
    cluster.integrate_rack("Compute", 0, &macs(0, 3)).unwrap();

    // NIS: a new account appears on the frontend; nodes are stale until
    // the next sync or reinstall.
    cluster.nis.master.upsert(rocks::services::PasswdEntry {
        user: "newgrad".into(),
        uid: 733,
        home: "/export/home/newgrad".into(),
    });
    assert!(!cluster.nis.stale_clients().is_empty());
    cluster.shoot_nodes(&["compute-0-1".into()]).unwrap();
    let view = cluster.nis.client("compute-0-1").unwrap();
    assert!(view.get("newgrad").is_some());

    // NFS: all three nodes hold /export/home mounts.
    assert_eq!(cluster.nfs.mount_count(), 3);
}

#[test]
fn insert_ethers_is_idempotent_across_reboots() {
    let mut cluster = Cluster::install_frontend("00:30:c1:d8:ac:80", 9).unwrap();
    let rack = macs(0, 4);
    cluster.integrate_rack("Compute", 0, &rack).unwrap();
    let before: Vec<_> = cluster.db.nodes().unwrap().iter().map(|n| n.ip).collect();

    // A power failure reboots the whole rack; the MACs reappear on DHCP.
    let again = cluster.integrate_rack("Compute", 0, &rack).unwrap();
    assert!(again.is_empty());
    let after: Vec<_> = cluster.db.nodes().unwrap().iter().map(|n| n.ip).collect();
    assert_eq!(before, after, "address bindings must be stable");
}
