//! The §5 production-upgrade workflow, end to end: mirror the vendor
//! security stream, rebuild the distribution, validate on a test node,
//! and roll the cluster through the batch system without disturbing
//! running jobs.
//!
//! Run with: `cargo run --example rolling_upgrade`

use rocks::core::{upgrade_cluster, Cluster};
use rocks::rpm::{Repository, UpdateStream};

fn main() {
    // A production cluster with eight compute nodes.
    let mut cluster = Cluster::install_frontend("00:30:c1:d8:ac:80", 7).expect("frontend");
    let macs: Vec<String> = (0..8).map(|i| format!("00:50:8b:e0:44:{i:02x}")).collect();
    cluster.integrate_rack("Compute", 0, &macs).expect("integration");

    // A month of vendor updates arrives (the §6.2.1 cadence: one every
    // three days, security fixes among them).
    let stream = UpdateStream::paper_stream(cluster.distribution.repo(), 11);
    let mut updates = Repository::new("rhsa-month");
    for update in stream.up_to_day(30) {
        updates.insert(update.package.clone());
    }
    println!("vendor shipped {} updates in the last 30 days", updates.iter().len());

    // Production is busy: a 4-node simulation has 2 hours left.
    let running = [("namd-production", 4usize, 7200.0)];

    let report = upgrade_cluster(&mut cluster, &updates, &running).expect("upgrade");
    println!("\nupgrade report:");
    println!("  packages updated in distribution: {}", report.packages_updated);
    println!("  validated on {} in {:.1} min", report.test_node, report.validation_minutes);
    println!(
        "  rolled {} production nodes in {:.0} s of cluster time",
        report.nodes_rolled, report.roll_seconds
    );
    println!(
        "  (running job finished untouched; roll completed {:.1} h after submission)",
        report.roll_seconds / 3600.0
    );

    // The whole cluster is now provably on the new software base.
    let inconsistent = cluster.inconsistent_nodes().expect("check");
    println!("\ninconsistent nodes after roll: {inconsistent:?}");
}
