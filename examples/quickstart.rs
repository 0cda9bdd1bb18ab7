//! Quickstart: bring up a Rocks cluster from nothing.
//!
//! Mirrors the paper's §7 installation story: install the frontend from
//! the CD (building the Rocks distribution and the cluster database),
//! boot compute nodes one at a time while insert-ethers integrates them,
//! then manage the whole machine through reinstallation.
//!
//! Run with: `cargo run --example quickstart`

use rocks::core::Cluster;
use rocks::rpm::Arch;

fn main() {
    // 1. Install the frontend. This builds the rocks-2.2.1 distribution
    //    (Red Hat 7.2 base + community + Rocks packages), creates the
    //    MySQL-equivalent database, registers frontend-0 at 10.1.1.1, and
    //    exports /export/home.
    let mut cluster = Cluster::install_frontend("00:30:c1:d8:ac:80", 7).expect("frontend");
    println!("frontend installed; distribution = {}", cluster.distribution.name);
    println!(
        "distribution carries {} packages ({:.1} MB for an i686 compute node)\n",
        cluster.distribution.repo().iter().len(),
        cluster.distribution.bytes_for_arch(Arch::I686) as f64 / (1024.0 * 1024.0),
    );

    // 2. Boot four new machines. Their DHCP requests hit syslog; the
    //    insert-ethers session names them, allocates addresses, records
    //    MAC bindings, and kicks off their installations.
    let macs: Vec<String> = (0..4).map(|i| format!("00:50:8b:e0:44:{i:02x}")).collect();
    let records = cluster.integrate_rack("Compute", 0, &macs).expect("integration");
    println!("integrated {} nodes:", records.len());
    for r in &records {
        println!("  {} {} {}", r.name, r.mac, r.ip);
    }

    // 3. The service configuration files are database reports (§6.4).
    let reports = cluster.reports().expect("reports");
    println!("\n/etc/hosts:\n{}", reports.hosts);
    println!("PBS nodes file:\n{}", reports.pbs_nodes);

    // 4. Any node's Kickstart file is generated on demand from the XML
    //    framework + SQL lookups (§6.1).
    let record = cluster.db.node_by_name("compute-0-0").expect("node exists");
    let ks = cluster
        .kickstart
        .generate_for_request(&cluster.db, &record.ip.to_string(), Arch::I686)
        .expect("kickstart");
    let appliance = cluster.kickstart.appliance_profile("compute", Arch::I686).expect("profile");
    println!(
        "kickstart for compute-0-0: {} bytes; compute appliance: {} packages, {} post sections",
        ks.as_str().len(),
        appliance.package_count(),
        appliance.posts.len()
    );

    // 5. Reinstallation is the management primitive: restore the whole
    //    cluster to a known-good state in one command (§5).
    cluster.inject_drift("compute-0-2", "/etc/passwd").expect("drift");
    println!("\ndrifted nodes: {:?}", cluster.inconsistent_nodes().expect("check"));
    let report = cluster.reinstall_all().expect("reinstall");
    println!(
        "reinstalled {} nodes concurrently in {:.1} virtual minutes",
        report.nodes.len(),
        report.total_minutes
    );
    println!("drifted nodes now: {:?}", cluster.inconsistent_nodes().expect("check"));
}
