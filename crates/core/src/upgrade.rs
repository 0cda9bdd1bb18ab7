//! The continuous-upgrade workflow (paper §5).
//!
//! "Software on production machines can be systematically and continually
//! upgraded. ... This tool can be used to apply the latest security
//! advisories and bug fixes. After the updates are validated on a small
//! test cluster, the production system can be upgraded by submitting a
//! 'reinstall cluster' job to Maui, as not to disturb any running
//! applications. Once the reinstallation is complete, the next job will
//! have a known, consistent software base."

use crate::cluster::Cluster;
use crate::{Result, RocksError};
use rocks_pbs::{run_rollout, FixedInstall, PbsServer, RolloutConfig};
use rocks_rpm::Repository;
use rocks_trace::Tracer;

/// What an upgrade did.
#[derive(Debug, Clone)]
pub struct UpgradeReport {
    /// Package slots whose version advanced in the distribution.
    pub packages_updated: usize,
    /// The node used for validation.
    pub test_node: String,
    /// Minutes the validation reinstall took.
    pub validation_minutes: f64,
    /// Virtual seconds until the whole production cluster was rolled
    /// (includes waiting for running jobs to drain).
    pub roll_seconds: f64,
    /// Nodes reinstalled during the roll.
    pub nodes_rolled: usize,
}

/// Run the full §5 workflow against `cluster`:
///
/// 1. fold `updates` into the distribution (rocks-dist rebuild,
///    newest-wins),
/// 2. reinstall one *test node* and verify it comes up consistent,
/// 3. submit the reinstall-cluster job to the batch system
///    ([`run_rollout`] in [`RolloutConfig::mass`], each leg priced from
///    the validation reinstall) and roll every remaining node as it
///    drains, never interrupting `running_jobs` (name, nodes, walltime)
///    already in the queue.
pub fn upgrade_cluster(
    cluster: &mut Cluster,
    updates: &Repository,
    running_jobs: &[(&str, usize, f64)],
) -> Result<UpgradeReport> {
    // Phase 1: rebuild the distribution.
    let before: Vec<String> = cluster.distribution.repo().iter().map(|p| p.ident()).collect();
    cluster.rebuild_distribution(&[updates])?;
    let after: Vec<String> = cluster.distribution.repo().iter().map(|p| p.ident()).collect();
    let packages_updated = after.iter().filter(|ident| !before.contains(ident)).count();

    // Phase 2: validate on a test node (the first compute node).
    let names = cluster.compute_node_names()?;
    let test_node = names
        .first()
        .cloned()
        .ok_or_else(|| RocksError::ValidationFailed("cluster has no compute nodes".into()))?;
    let validation = cluster.shoot_nodes(std::slice::from_ref(&test_node))?;
    if !cluster.inconsistent_nodes()?.is_empty()
        && cluster.inconsistent_nodes()?.contains(&test_node)
    {
        return Err(RocksError::ValidationFailed(format!(
            "{test_node} still inconsistent after reinstall"
        )));
    }

    // Phase 3: roll the production nodes through PBS. The test node is
    // already done; everything else drains and reinstalls.
    let remaining: Vec<String> = names.iter().filter(|n| **n != test_node).cloned().collect();
    let mut pbs = PbsServer::new();
    for name in &remaining {
        pbs.add_node(name);
    }
    for (job_name, nodes, walltime) in running_jobs {
        pbs.qsub(job_name, *nodes, *walltime)?;
        // A job that cannot start right away stays queued and starts on
        // reinstalled nodes as the roll returns them.
        rocks_pbs::scheduler::schedule(&mut pbs);
    }
    // Reinstall duration per node from the validation measurement. A
    // cluster whose only compute node was the test node has nothing left
    // to roll.
    let reinstall_seconds = validation.total_minutes * 60.0;
    let roll_seconds = if remaining.is_empty() {
        0.0
    } else {
        run_rollout(
            &mut pbs,
            &mut FixedInstall { seconds: reinstall_seconds, bytes: 0 },
            &RolloutConfig::mass(remaining.len()),
            &[],
            &[],
            &mut [],
            &Tracer::disabled(),
        )?
        .report
        .makespan_seconds
    };

    // Reflect the roll in the cluster's images.
    cluster.shoot_nodes(&remaining)?;

    Ok(UpgradeReport {
        packages_updated,
        test_node,
        validation_minutes: validation.total_minutes,
        roll_seconds,
        nodes_rolled: remaining.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocks_rpm::{Arch, Package};

    fn cluster_with_nodes(n: usize) -> Cluster {
        let mut cluster = Cluster::install_frontend("00:30:c1:d8:ac:80", 1).unwrap();
        let macs: Vec<String> = (0..n).map(|i| format!("aa:00:00:00:00:{i:02x}")).collect();
        cluster.integrate_rack("Compute", 0, &macs).unwrap();
        cluster
    }

    fn security_update() -> Repository {
        let mut updates = Repository::new("rhsa");
        updates
            .insert(Package::builder("glibc", "2.2.4-24").arch(Arch::I686).size(14 << 20).build());
        updates.insert(Package::builder("openssh-server", "2.9p2-14").size(320 << 10).build());
        updates
    }

    #[test]
    fn upgrade_ends_with_consistent_cluster() {
        let mut cluster = cluster_with_nodes(4);
        let report = upgrade_cluster(&mut cluster, &security_update(), &[]).unwrap();
        assert_eq!(report.packages_updated, 2);
        assert_eq!(report.nodes_rolled, 3);
        assert!(cluster.inconsistent_nodes().unwrap().is_empty());
        // Every node now carries the patched glibc.
        for name in cluster.compute_node_names().unwrap() {
            let image = cluster.image(&name).unwrap();
            assert!(
                image.packages.iter().any(|p| p.contains("glibc-2.2.4-24")),
                "{name} missing update"
            );
        }
    }

    #[test]
    fn running_jobs_delay_the_roll_but_finish() {
        let mut cluster = cluster_with_nodes(4);
        // A 2-node job with 1 hour of walltime is running in production.
        let report =
            upgrade_cluster(&mut cluster, &security_update(), &[("science", 2, 3600.0)]).unwrap();
        // The roll cannot finish before the job does.
        assert!(
            report.roll_seconds >= 3600.0,
            "roll finished at {} despite a 3600 s job",
            report.roll_seconds
        );
        assert!(cluster.inconsistent_nodes().unwrap().is_empty());
    }

    #[test]
    fn idle_cluster_rolls_in_one_reinstall_window() {
        let mut cluster = cluster_with_nodes(3);
        let report = upgrade_cluster(&mut cluster, &security_update(), &[]).unwrap();
        // All remaining nodes reinstall concurrently: the roll is one
        // reinstall duration, not nodes × duration.
        let one = report.validation_minutes * 60.0;
        assert!(
            report.roll_seconds < one * 1.5,
            "roll {} vs single install {}",
            report.roll_seconds,
            one
        );
    }

    #[test]
    fn one_node_cluster_validates_and_has_nothing_to_roll() {
        let mut cluster = cluster_with_nodes(1);
        let report = upgrade_cluster(&mut cluster, &security_update(), &[]).unwrap();
        assert_eq!(report.roll_seconds, 0.0);
        assert_eq!(report.nodes_rolled, 0);
        assert!(cluster.inconsistent_nodes().unwrap().is_empty());
    }

    #[test]
    fn empty_cluster_fails_validation() {
        let mut cluster = Cluster::install_frontend("00:30:c1:d8:ac:80", 1).unwrap();
        assert!(matches!(
            upgrade_cluster(&mut cluster, &security_update(), &[]),
            Err(RocksError::ValidationFailed(_))
        ));
    }
}
