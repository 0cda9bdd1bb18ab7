//! Day-2 operations: the life of a Rocks cluster after bring-up.
//!
//! Covers the §3.1 evolution story ("clusters quickly evolve into
//! heterogeneous systems ... as failed components are replaced"): a new
//! appliance class, a dead motherboard swapped for new hardware, status
//! straight from the database, and a monitored reinstall.
//!
//! Run with: `cargo run --example day2_operations`

use rocks::core::{cluster_status, Cluster};

fn main() {
    let mut cluster = Cluster::install_frontend("00:30:c1:d8:ac:80", 7).expect("frontend");
    let macs: Vec<String> = (0..4).map(|i| format!("00:50:8b:e0:44:{i:02x}")).collect();
    cluster.integrate_rack("Compute", 0, &macs).expect("compute rack");

    // A dedicated storage appliance joins (Table II's nfs-0-0 pattern):
    // new membership, kickstarted from the nfs-server graph root.
    cluster.add_appliance("Storage", "nfs", "nfs-server", false).expect("appliance");
    let records = cluster
        .integrate_rack("Storage", 0, &["00:50:8b:a5:4d:b1".to_string()])
        .expect("storage node");
    println!("integrated storage appliance: {}", records[0].name);

    // Status is a pair of GROUP BY queries against the cluster database.
    println!("\n{}", cluster_status(&mut cluster).expect("status"));

    // compute-0-2's motherboard dies. The replacement chassis keeps the
    // node's identity; only the MAC binding changes, then it reinstalls.
    let before = cluster.db.node_by_name("compute-0-2").expect("exists");
    let report = cluster.replace_node("compute-0-2", "00:50:8b:ff:00:99").expect("replace");
    let after = cluster.db.node_by_name("compute-0-2").expect("exists");
    println!(
        "replaced compute-0-2: mac {} -> {}, ip stable at {}, reinstalled in {:.1} min",
        before.mac, after.mac, after.ip, report.total_minutes
    );

    // A monitored reinstall: watch one node's eKV transcript.
    let (report, feeds) =
        cluster.shoot_nodes_monitored(&["compute-0-0".to_string()]).expect("monitored shoot");
    let (node, feed) = &feeds[0];
    println!("\neKV transcript for {node} ({:.1} min):", report.per_node_minutes[0]);
    for line in feed.backlog().take(6) {
        println!("  {line}");
    }
    println!("  ... ({} more lines)", feed.backlog().count().saturating_sub(6));

    // Everything is provably consistent at the end of the day.
    println!("\ninconsistent nodes: {:?}", cluster.inconsistent_nodes().expect("check"));
}
