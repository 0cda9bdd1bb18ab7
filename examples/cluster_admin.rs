//! SQL-directed administration (paper §6.4): `cluster-fork` and the
//! paper's own `cluster-kill` examples, run verbatim.
//!
//! Run with: `cargo run --example cluster_admin`

use rocks::core::{cluster_fork, cluster_kill, Cluster};

fn main() {
    // Two cabinets of compute nodes.
    let mut cluster = Cluster::install_frontend("00:30:c1:d8:ac:80", 7).expect("frontend");
    for rack in 0..2i64 {
        let macs: Vec<String> = (0..3).map(|i| format!("00:50:8b:e0:{rack:02x}:{i:02x}")).collect();
        cluster.integrate_rack("Compute", rack, &macs).expect("integrate");
    }

    // A runaway job lands on every node.
    cluster_fork(&mut cluster, None, "start bad-job").expect("cluster-fork");
    println!("bad-job running on all {} nodes", cluster.compute_node_names().unwrap().len());

    // §6.4, example 1: target one cabinet.
    //   cluster-kill --query="select name from nodes where rack=1" bad-job
    let result = cluster_kill(&mut cluster, Some("select name from nodes where rack=1"), "bad-job")
        .expect("cluster-kill");
    println!("\nkill rack 1: {} nodes targeted, all ok = {}", result.exits.len(), result.all_ok());
    for name in cluster.compute_node_names().expect("names") {
        println!("  {name}: {:?}", cluster.agent(&name).expect("agent").process_names());
    }

    // §6.4, example 2: the multi-table join, verbatim.
    let result = cluster_kill(
        &mut cluster,
        Some(
            "select nodes.name from nodes,memberships where \
             nodes.membership = memberships.id and \
             memberships.name = 'Compute'",
        ),
        "bad-job",
    )
    .expect("cluster-kill");
    println!("\nkill via membership join: {} nodes targeted", result.exits.len());

    // cluster-fork: run anything anywhere, output labelled per node.
    let result = cluster_fork(&mut cluster, None, "hostname").expect("cluster-fork");
    println!("\ncluster-fork hostname:");
    for line in &result.output {
        println!("  {}: {}", line.node, line.line);
    }
}
