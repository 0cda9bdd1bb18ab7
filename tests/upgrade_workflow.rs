//! The §5/§6.2 software-currency pipeline across crates: vendor update
//! stream → rocks-dist rebuild → validation → rolling reinstall.

use rocks::core::{upgrade_cluster, Cluster};
use rocks::rpm::{synth, Arch, Package, Repository, UpdateStream};

fn cluster(n: usize) -> Cluster {
    let mut cluster = Cluster::install_frontend("00:30:c1:d8:ac:80", 13).unwrap();
    let macs: Vec<String> = (0..n).map(|i| format!("00:50:8b:aa:00:{i:02x}")).collect();
    cluster.integrate_rack("Compute", 0, &macs).unwrap();
    cluster
}

#[test]
fn year_of_updates_flows_to_node_images() {
    let mut cluster = cluster(4);
    let stream = UpdateStream::paper_stream(cluster.distribution.repo(), 99);

    // Mirror the whole year into an updates repository.
    let mut updates = Repository::new("updates-365");
    for update in stream.updates() {
        updates.insert(update.package.clone());
    }
    let report = upgrade_cluster(&mut cluster, &updates, &[]).unwrap();
    assert!(report.packages_updated > 0);

    // Every compute-node-relevant update is now on every node.
    let image = cluster.image("compute-0-0").unwrap().clone();
    for pkg in updates.iter() {
        if !pkg.arch.installs_on(Arch::I686) {
            continue;
        }
        // If the distribution resolves this slot to the updated EVR and
        // the package is part of the compute set, the image must carry it.
        if let Some(resolved) = cluster.distribution.repo().get(&pkg.name, pkg.arch) {
            if resolved.evr == pkg.evr
                && image.packages.iter().any(|p| p.starts_with(&format!("{}-", pkg.name)))
            {
                assert!(
                    image.packages.contains(&resolved.ident()),
                    "node missing {}",
                    resolved.ident()
                );
            }
        }
    }
}

#[test]
fn upgrade_is_idempotent() {
    let mut cluster = cluster(3);
    let mut updates = Repository::new("u");
    updates.insert(Package::builder("bash", "2.05-10").size(800 << 10).build());
    let first = upgrade_cluster(&mut cluster, &updates, &[]).unwrap();
    assert_eq!(first.packages_updated, 1);
    // Applying the same updates again changes nothing.
    let second = upgrade_cluster(&mut cluster, &updates, &[]).unwrap();
    assert_eq!(second.packages_updated, 0);
    assert!(cluster.inconsistent_nodes().unwrap().is_empty());
}

#[test]
fn stale_update_never_downgrades() {
    let mut cluster = cluster(2);
    let current = cluster.distribution.repo().get("glibc", Arch::I686).unwrap().evr.clone();
    let mut stale = Repository::new("stale");
    stale.insert(Package::builder("glibc", "2.1.0-1").arch(Arch::I686).build());
    let report = upgrade_cluster(&mut cluster, &stale, &[]).unwrap();
    assert_eq!(report.packages_updated, 0);
    assert_eq!(cluster.distribution.repo().get("glibc", Arch::I686).unwrap().evr, current);
}

#[test]
fn hierarchy_rebuild_reaches_department_clusters() {
    // A security fix lands at the vendor; a campus and a department both
    // rebuild; a cluster running the department distro picks it up on
    // reinstall.
    use rocks::dist::Distribution;
    use rocks::dist::{build_chain, Level};

    let vendor = Distribution::stock("redhat-7.2", synth::redhat72(13));
    let mut fix = Repository::new("rhsa");
    fix.insert(Package::builder("openssh-server", "2.9p2-99").size(320 << 10).build());

    let chain = build_chain(
        &vendor,
        &[
            Level {
                name: "rocks".into(),
                updates: vec![fix.clone()],
                contrib: vec![synth::community()],
                local: vec![synth::rocks_local()],
            },
            Level::with_contrib("campus", Repository::new("none")),
            Level::with_contrib("dept", Repository::new("none2")),
        ],
    )
    .unwrap();
    let dept = &chain[2].0;
    assert_eq!(dept.repo().get("openssh-server", Arch::I386).unwrap().evr.to_string(), "2.9p2-99");
}

#[test]
fn update_stream_statistics_match_section_621() {
    let base = synth::redhat72(1);
    let stream = UpdateStream::paper_stream(&base, 4);
    assert_eq!(stream.updates().len(), 124);
    assert_eq!(stream.security_count(), 74);
    let mean = stream.mean_interval_days();
    assert!((2.0..4.0).contains(&mean), "one update every ~3 days, got {mean}");
}
