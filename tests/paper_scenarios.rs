//! Scenario tests pinned to specific passages of the paper.

use rocks::core::{cluster_fork, cluster_kill, Cluster};
use rocks::kickstart::NodeFile;
use rocks::rpm::Arch;

fn cluster_two_racks() -> Cluster {
    let mut cluster = Cluster::install_frontend("00:30:c1:d8:ac:80", 31).unwrap();
    for rack in 0..2i64 {
        let macs: Vec<String> = (0..2).map(|i| format!("00:50:8b:{rack:02x}:0f:{i:02x}")).collect();
        cluster.integrate_rack("Compute", rack, &macs).unwrap();
    }
    cluster
}

/// §3.2's four questions become answerable (or unnecessary).
#[test]
fn section_3_2_questions() {
    let mut cluster = cluster_two_racks();

    // "What version of software X do I have on node Y?"
    let image = cluster.image("compute-0-0").unwrap();
    let glibc: Vec<&String> = image.packages.iter().filter(|p| p.starts_with("glibc-")).collect();
    assert!(!glibc.is_empty());

    // "Software service X on node Y appears to be down. Did I configure
    // it correctly?" — configuration is generated, not typed: the same
    // post script reaches every node.
    let ks0 = cluster.generator().generate_for_appliance("compute", Arch::I686).unwrap();
    let ks1 = cluster.generator().generate_for_appliance("compute", Arch::I686).unwrap();
    assert_eq!(ks0, ks1, "generated configuration is deterministic");

    // "When my script attempted to update 32 nodes, was node X offline?"
    // — reinstall reports completion per node.
    let report = cluster.reinstall_all().unwrap();
    assert!(report.per_node_minutes.iter().all(|m| m.is_finite()));

    // "My experiment on node X just went horribly wrong. How do I restore
    // the last known good state?" — reinstall it; 5–10 minutes later the
    // node is consistent.
    cluster.inject_drift("compute-1-0", "kernel").unwrap();
    let report = cluster.shoot_nodes(&["compute-1-0".into()]).unwrap();
    assert!((5.0..12.0).contains(&report.total_minutes));
    assert!(cluster.inconsistent_nodes().unwrap().is_empty());
}

/// §6.4's cluster-kill examples, exactly as printed.
#[test]
fn section_6_4_cluster_kill_examples() {
    let mut cluster = cluster_two_racks();
    cluster_fork(&mut cluster, None, "start bad-job").unwrap();

    cluster_kill(&mut cluster, Some("select name from nodes where rack=1"), "bad-job").unwrap();
    assert_eq!(cluster.agent("compute-0-0").unwrap().process_names(), vec!["bad-job"]);
    assert!(cluster.agent("compute-1-0").unwrap().process_names().is_empty());

    cluster_kill(
        &mut cluster,
        Some(
            "select nodes.name from nodes,memberships where \
             nodes.membership = memberships.id and \
             memberships.name = 'Compute'",
        ),
        "bad-job",
    )
    .unwrap();
    for name in cluster.compute_node_names().unwrap() {
        assert!(cluster.agent(&name).unwrap().process_names().is_empty());
    }
}

/// §6.1: Figure 2's node file drives a real generated kickstart.
#[test]
fn figure_2_flows_into_generated_kickstart() {
    let cluster = cluster_two_racks();
    let ks = cluster.generator().generate_for_appliance("frontend", Arch::I686).unwrap();
    let text = ks.render();
    // The DHCP module's package and its awk post script are in the
    // frontend's kickstart.
    assert!(text.contains("\ndhcp\n"));
    assert!(text.contains("DHCPD_INTERFACES"));
    assert!(text.contains("mv /tmp/dhcpd /etc/sysconfig/dhcpd"));
}

/// §6.2.3: developers isolate themselves with custom distributions; a
/// custom node file only affects the cluster that installed it.
#[test]
fn site_customization_is_local_to_a_generator() {
    let mut cluster_a = cluster_two_racks();
    let cluster_b = cluster_two_racks();

    let custom = NodeFile::parse(
        "dev-sandbox",
        "<kickstart><package>experimental-mpi</package></kickstart>",
    )
    .unwrap();
    cluster_a.generator_mut().profiles_mut().add_node_file(custom);
    cluster_a.generator_mut().profiles_mut().graph.add_edge("compute", "dev-sandbox");

    let ks_a = cluster_a.generator().generate_for_appliance("compute", Arch::I686).unwrap();
    let ks_b = cluster_b.generator().generate_for_appliance("compute", Arch::I686).unwrap();
    assert!(ks_a.packages.iter().any(|p| p == "experimental-mpi"));
    assert!(!ks_b.packages.iter().any(|p| p == "experimental-mpi"));
}

/// §4.1: REXEC redirects output and propagates the environment.
#[test]
fn rexec_environment_propagation() {
    let mut cluster = cluster_two_racks();
    let result = cluster_fork(&mut cluster, None, "printenv PWD").unwrap();
    assert!(result.all_ok());
    // Default environment CWD reaches every node.
    for (node, _) in &result.exits {
        assert_eq!(result.stdout_of(node), vec!["/home/user"]);
    }
}

/// §6.4: `cluster-fork` prints the same bytes every run, grouped by node
/// in the order the selection lists them.
#[test]
fn cluster_fork_output_is_the_same_every_run() {
    let mut cluster = Cluster::install_frontend("00:30:c1:d8:ac:80", 31).unwrap();
    let macs: Vec<String> = (0..16).map(|i| format!("00:50:8b:00:0f:{i:02x}")).collect();
    cluster.integrate_rack("Compute", 0, &macs).unwrap();
    let names = cluster.compute_node_names().unwrap();
    assert_eq!(names.len(), 16);
    let first = cluster_fork(&mut cluster, None, "hostname").unwrap();
    let order: Vec<&str> = first.output.iter().map(|o| o.node.as_str()).collect();
    assert_eq!(order, names);
    for _ in 1..100 {
        assert_eq!(cluster_fork(&mut cluster, None, "hostname").unwrap(), first);
    }
}

/// §6.4: the fan-out follows the `--query=` result row by row, and a
/// selection naming a node without an agent runs nothing anywhere.
#[test]
fn cluster_fork_follows_the_query() {
    let mut cluster = cluster_two_racks();
    // A cross join repeats each rack-1 name once per membership.
    let repeated = "select nodes.name from nodes, memberships where nodes.rack = 1";
    let selected = cluster.db.query_names(repeated).unwrap();
    assert!(selected.len() > 2, "{selected:?}");
    let result = cluster_fork(&mut cluster, Some(repeated), "hostname").unwrap();
    let nodes: Vec<&String> = result.exits.iter().map(|(node, _)| node).collect();
    assert_eq!(nodes, selected.iter().collect::<Vec<_>>());

    cluster_fork(&mut cluster, None, "start bad-job").unwrap();
    let processes = |cluster: &mut Cluster| -> Vec<Vec<String>> {
        let names = cluster.compute_node_names().unwrap();
        names.iter().map(|name| cluster.agent(name).unwrap().process_names()).collect()
    };
    let before = processes(&mut cluster);
    // frontend-0 sorts last, after every compute node.
    let with_frontend = "select name from nodes order by name";
    assert_eq!(cluster.db.query_names(with_frontend).unwrap().last().unwrap(), "frontend-0");
    assert!(cluster_fork(&mut cluster, Some(with_frontend), "start x").is_err());
    assert_eq!(processes(&mut cluster), before);
}

/// §5: "any number of compute nodes can be restored to a known good
/// state in 5-10 minutes" — and the count does not change the time.
#[test]
fn restore_time_is_independent_of_node_count() {
    let mut cluster = cluster_two_racks(); // 4 nodes
    let one = cluster.shoot_nodes(&["compute-0-0".into()]).unwrap();
    let all = cluster.reinstall_all().unwrap();
    assert!((5.0..12.0).contains(&one.total_minutes));
    assert!((5.0..12.0).contains(&all.total_minutes));
    assert!(all.total_minutes < one.total_minutes * 1.3);
}

/// §3.3: the custom-kernel workflow — "the cluster administrator crafts a
/// .config file, rebuilds the kernel RPM (with make rpm), copies the
/// resulting kernel binary package back to the frontend machine and binds
/// it into a new distribution (using rocks-dist). Then the new kernel RPM
/// is instantiated on all desired nodes by simply reinstalling them."
#[test]
fn section_3_3_custom_kernel_workflow() {
    use rocks::rpm::{Package, Repository};

    let mut cluster = cluster_two_racks();
    let stock_kernel =
        cluster.distribution.repo().best_for("kernel", Arch::I686).unwrap().evr.clone();

    // `make rpm` produced a site-built kernel; the release suffix makes it
    // strictly newer under rpmvercmp.
    let mut local = Repository::new("site-kernels");
    local.insert(
        Package::builder("kernel", "2.4.9-31.1sdsc").arch(Arch::I686).size(11 << 20).build(),
    );
    assert!(local.get("kernel", Arch::I686).unwrap().evr > stock_kernel);

    // Bind it into a new distribution and reinstall the desired nodes.
    cluster.rebuild_distribution(&[&local]).unwrap();
    cluster.shoot_nodes(&["compute-0-0".into(), "compute-0-1".into()]).unwrap();

    let upgraded = cluster.image("compute-0-0").unwrap();
    assert!(
        upgraded.packages.iter().any(|p| p.contains("kernel-2.4.9-31.1sdsc")),
        "custom kernel not instantiated"
    );
    // Rack 1 was not reinstalled: it still runs the stock kernel and now
    // reports as inconsistent — exactly the state the tool surfaces.
    let stale = cluster.inconsistent_nodes().unwrap();
    assert_eq!(stale, vec!["compute-1-0", "compute-1-1"]);
}

/// §7: the frontend's own kickstart comes from the web form.
#[test]
fn section_7_frontend_web_form() {
    use rocks::kickstart::FrontendForm;
    let cluster = cluster_two_racks();
    let form = FrontendForm {
        cluster_name: "meteor".into(),
        public_hostname: "meteor.sdsc.edu".into(),
        ..Default::default()
    };
    let ks = form.generate(cluster.generator()).unwrap();
    let text = ks.render();
    assert!(text.contains("CLUSTER_NAME=meteor"));
    assert!(text.contains("--hostname meteor.sdsc.edu"));
    assert!(text.contains("mysql-server"));
}
