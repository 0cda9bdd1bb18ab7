//! The [`Cluster`] type: frontend + database + distribution + nodes.

use crate::{Result, RocksError};
use rocks_db::insert_ethers::{register_frontend, DhcpRequest, InsertEthers};
use rocks_db::{reports, ClusterDb, NodeRecord};
use rocks_dist::{build_traced, BuildConfig, Distribution};
use rocks_kickstart::{profiles, GeneratedProfile, GenerationService, KickstartGenerator};
use rocks_netsim::{ClusterSim, SimConfig};
use rocks_rexec::NodeAgent;
use rocks_rpm::{synth, Arch, Repository};
use rocks_services::{DhcpService, NfsServer, NisDomain};
use rocks_trace::{Snapshot, Tracer};
use std::collections::{BTreeMap, BTreeSet};

/// What one node currently has on disk, from the management system's
/// point of view. Rocks treats this as *soft state*: reinstallation
/// rewrites it wholesale (§1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeImage {
    /// Which distribution installed it.
    pub dist_name: String,
    /// Installed package identities (`name-evr.arch`).
    pub packages: BTreeSet<String>,
    /// Items an experiment or operator drifted away from the known-good
    /// state (file paths or package names).
    pub drifted: BTreeSet<String>,
    /// How many times this node has been (re)installed.
    pub install_count: usize,
}

/// Result of a reinstallation wave.
#[derive(Debug, Clone)]
pub struct ReinstallReport {
    /// Node names reinstalled.
    pub nodes: Vec<String>,
    /// Per-node minutes.
    pub per_node_minutes: Vec<f64>,
    /// Wall-clock minutes for the whole wave (Table I's metric).
    pub total_minutes: f64,
}

/// A complete Rocks cluster.
pub struct Cluster {
    /// The cluster database (§6.4).
    pub db: ClusterDb,
    /// The Kickstart generation service (§6.1): the CGI generator behind
    /// a thread-safe skeleton cache that database writes leave warm and
    /// [`Self::rebuild_distribution`] invalidates.
    pub kickstart: GenerationService,
    /// The current distribution (§6.2).
    pub distribution: Distribution,
    /// Frontend DHCP service.
    pub dhcp: DhcpService,
    /// NIS account domain.
    pub nis: NisDomain,
    /// NFS home-directory server.
    pub nfs: NfsServer,
    agents: BTreeMap<String, NodeAgent>,
    images: BTreeMap<String, NodeImage>,
    /// Seed for simulated installs (deterministic experiments).
    pub sim_seed: u64,
}

impl Cluster {
    /// Install a frontend: build the Rocks distribution from the stock
    /// vendor release plus community and local software, create the
    /// database, register the frontend, and start services — everything
    /// the Rocks CD does (§7).
    pub fn install_frontend(frontend_mac: &str, sim_seed: u64) -> Result<Cluster> {
        Cluster::install_frontend_traced(frontend_mac, sim_seed, Tracer::disabled())
    }

    /// [`install_frontend`](Self::install_frontend) with telemetry: every
    /// subsystem — distribution builds, Kickstart generation, SQL query
    /// planning, and the install simulator — reports spans and counters
    /// through `tracer`, whose registry becomes the cluster's single
    /// metrics ledger (see [`Self::telemetry`]).
    pub fn install_frontend_traced(
        frontend_mac: &str,
        sim_seed: u64,
        tracer: Tracer,
    ) -> Result<Cluster> {
        let stock = Distribution::stock("redhat-7.2", synth::redhat72(sim_seed));
        let community = synth::community();
        let local = synth::rocks_local();
        let (distribution, _report) = build_traced(
            BuildConfig {
                name: "rocks-2.2.1".into(),
                parent: Some(&stock),
                contrib: vec![&community],
                local: vec![&local],
                ..Default::default()
            },
            &tracer,
        )?;

        let mut db = ClusterDb::new();
        register_frontend(&mut db, frontend_mac, "frontend-0")?;

        let kickstart = GenerationService::with_tracer(
            KickstartGenerator::new(profiles::default_profiles(), "10.1.1.1", "install/rocks-dist"),
            tracer,
        );
        // SQL planner counters land in the same registry as everything
        // else (one ledger per cluster).
        db.bind_stats_registry(kickstart.registry());

        let mut nfs = NfsServer::new();
        nfs.export("/export/home", "10.");

        Ok(Cluster {
            db,
            kickstart,
            distribution,
            dhcp: DhcpService::new(),
            nis: NisDomain::new(),
            nfs,
            agents: BTreeMap::new(),
            images: BTreeMap::new(),
            sim_seed,
        })
    }

    /// Integrate a rack of new nodes: boot each (simulated) machine,
    /// watch the DHCP syslog, and run insert-ethers over the unknown
    /// MACs. Installs each integrated node immediately, as booting a
    /// Rocks CD does. Returns the new database records.
    pub fn integrate_rack(
        &mut self,
        membership: &str,
        rack: i64,
        macs: &[String],
    ) -> Result<Vec<NodeRecord>> {
        // Boot order is integration order (§6.4's sequential procedure).
        for mac in macs {
            self.dhcp.discover(&mut self.db, mac);
        }
        let unknown = self.dhcp.unknown_macs();
        let mut session = InsertEthers::start(&mut self.db, membership, rack)?;
        let mut records = Vec::new();
        for mac in unknown {
            if !macs.contains(&mac) {
                continue; // an earlier rack's leftovers
            }
            if let Some(record) = session.observe(&DhcpRequest { mac })? {
                records.push(record);
            }
        }
        // Bring the new nodes up. Integration boots machines one at a
        // time (the §6.4 sequential cabinet walk), so the installs start
        // staggered rather than as a simultaneous storm.
        let names: Vec<String> = records.iter().map(|r| r.name.clone()).collect();
        if !names.is_empty() {
            self.install_wave(&names, Some(20.0))?;
        }
        Ok(records)
    }

    /// The tracer every subsystem reports through (disabled unless the
    /// cluster was built with
    /// [`install_frontend_traced`](Self::install_frontend_traced)).
    pub fn tracer(&self) -> &Tracer {
        self.kickstart.tracer()
    }

    /// One consistent snapshot of every metric the cluster has recorded:
    /// Kickstart cache traffic, SQL planner decisions, distribution
    /// builds, and simulated-install counters all share one registry.
    pub fn telemetry(&self) -> Snapshot {
        self.kickstart.registry().snapshot()
    }

    /// The Kickstart generator inside the service (read-only).
    pub fn generator(&self) -> &KickstartGenerator {
        self.kickstart.generator()
    }

    /// Mutable generator access for site customization (§6.2.3). Editing
    /// the profiles drops every cached skeleton.
    pub fn generator_mut(&mut self) -> &mut KickstartGenerator {
        self.kickstart.generator_mut()
    }

    /// Generate every registered node's Kickstart profile through the
    /// shared service, fanning out over `threads` workers — the mass
    /// pre-generation a frontend performs ahead of a reinstall wave.
    pub fn generate_kickstarts(&self, threads: usize) -> Result<Vec<GeneratedProfile>> {
        Ok(self.kickstart.generate_all(&self.db, Arch::I686, threads)?)
    }

    /// The package identities a compute node of `arch` installs from the
    /// current distribution.
    pub fn compute_image(&self, arch: Arch) -> BTreeSet<String> {
        let ks =
            self.kickstart.appliance_profile("compute", arch).expect("default profiles are closed");
        ks.packages
            .iter()
            .filter_map(|name| self.distribution.repo().best_for(name, arch))
            .map(|p| p.ident())
            .collect()
    }

    /// Names of all compute nodes.
    pub fn compute_node_names(&mut self) -> Result<Vec<String>> {
        Ok(self.db.compute_nodes()?.into_iter().map(|n| n.name).collect())
    }

    /// The installed image of a node, if it has ever installed.
    pub fn image(&self, node: &str) -> Option<&NodeImage> {
        self.images.get(node)
    }

    /// The node's execution agent (tests and tools use this).
    pub fn agent(&self, node: &str) -> Option<&NodeAgent> {
        self.agents.get(node)
    }

    /// All agents for a set of node names, failing on unknowns.
    pub(crate) fn agents_for(&self, names: &[String]) -> Result<Vec<&NodeAgent>> {
        names
            .iter()
            .map(|n| self.agents.get(n).ok_or_else(|| RocksError::NoSuchNode(n.clone())))
            .collect()
    }

    /// Simulation configuration for installs from the *current*
    /// distribution (package set tracks upgrades).
    pub fn sim_config(&self) -> SimConfig {
        let mut cfg = SimConfig::paper_testbed(self.sim_seed);
        cfg.packages = self
            .compute_package_list(Arch::I686)
            .iter()
            .map(rocks_netsim::PackageWork::from_package)
            .collect();
        cfg
    }

    fn compute_package_list(&self, arch: Arch) -> Vec<rocks_rpm::Package> {
        let ks =
            self.kickstart.appliance_profile("compute", arch).expect("default profiles are closed");
        ks.packages
            .iter()
            .filter_map(|name| self.distribution.repo().best_for(name, arch))
            .cloned()
            .collect()
    }

    /// `shoot-node`: reinstall the named nodes concurrently (§6.3). The
    /// simulated install produces Table-I-calibrated times; on completion
    /// each node's image is reset to the current distribution, its NIS
    /// binding re-pulled, and its NFS mounts re-established.
    pub fn shoot_nodes(&mut self, names: &[String]) -> Result<ReinstallReport> {
        for name in names {
            // Validate all names before touching anything.
            self.db.node_by_name(name)?;
        }
        Ok(self.install_wave(names, None)?.0)
    }

    /// Simulate one install wave of `names` and fold it into cluster
    /// state: fresh images, fresh agents, rebound services. With
    /// `stagger`, node `i` powers on `i × gap` seconds in (§6.4's
    /// sequential integration walk); without, all at once, as
    /// `shoot-node` does. The simulator comes back too: its node logs
    /// are the installer transcripts.
    fn install_wave(
        &mut self,
        names: &[String],
        stagger: Option<f64>,
    ) -> Result<(ReinstallReport, ClusterSim)> {
        let mut sim = ClusterSim::new(self.sim_config(), names.len());
        sim.set_tracer(self.kickstart.tracer().clone());
        let outcome = match stagger {
            Some(gap) => sim.try_run_reinstall_staggered(gap)?,
            None => sim.try_run_reinstall()?,
        };
        let image_packages = self.compute_image(Arch::I686);
        let mut per_node_minutes = Vec::new();
        for (i, name) in names.iter().enumerate() {
            let record = self.db.node_by_name(name)?;
            per_node_minutes.push(outcome.per_node_seconds[i].unwrap_or(f64::NAN) / 60.0);

            let install_count = self.images.get(name).map(|im| im.install_count).unwrap_or(0) + 1;
            self.images.insert(
                name.clone(),
                NodeImage {
                    dist_name: self.distribution.name.clone(),
                    packages: image_packages.clone(),
                    drifted: BTreeSet::new(),
                    install_count,
                },
            );
            // Fresh OS: new agent (old processes die with the old OS).
            self.agents.insert(name.clone(), NodeAgent::start(name));
            // Rebind services.
            self.nis.bind_client(name);
            self.nis.sync_client(name);
            self.nfs.unmount_client(&record.ip.to_string());
            let _ = self.nfs.mount(&record.ip.to_string(), "/export/home");
        }

        let report = ReinstallReport {
            nodes: names.to_vec(),
            per_node_minutes,
            total_minutes: outcome.total_minutes(),
        };
        Ok((report, sim))
    }

    /// Reinstall every compute node ("we simply reinstall by sending a
    /// message over the network", §5).
    pub fn reinstall_all(&mut self) -> Result<ReinstallReport> {
        let names = self.compute_node_names()?;
        self.shoot_nodes(&names)
    }

    /// `shoot-node` with eKV monitoring (§6.3): reinstall the named nodes
    /// and stream each node's installer transcript into a per-node
    /// [`rocks_ekv::LocalFeed`] — what the xterm `shoot-node` pops open
    /// would tail. Returns the report plus the feeds, whose backlogs hold
    /// the complete transcripts (timestamped in virtual seconds).
    pub fn shoot_nodes_monitored(
        &mut self,
        names: &[String],
    ) -> Result<(ReinstallReport, Vec<(String, rocks_ekv::LocalFeed)>)> {
        for name in names {
            self.db.node_by_name(name)?;
        }
        let (report, sim) = self.install_wave(names, None)?;

        let mut feeds = Vec::new();
        for (i, name) in names.iter().enumerate() {
            let feed = rocks_ekv::LocalFeed::new();
            for line in &sim.node(i).log {
                feed.publish(&format!(
                    "[{:>7.1}s] {}",
                    line.at as f64 / 1e6,
                    // The simulator names nodes positionally; present the
                    // real hostname in the transcript.
                    line.text.replacen(&format!("compute-0-{i}"), name, 1)
                ));
            }
            feeds.push((name.clone(), feed));
        }
        Ok((report, feeds))
    }

    /// Define a new appliance class end-to-end (§6.1's extensibility):
    /// register a membership that kickstarts from `graph_root`, add the
    /// root's node file and edges to the profile set if the caller has
    /// not already, and return the membership id. Nodes integrated under
    /// `membership_name` then install the new appliance.
    pub fn add_appliance(
        &mut self,
        membership_name: &str,
        basename: &str,
        graph_root: &str,
        compute: bool,
    ) -> Result<i64> {
        // Appliance row: next free id in the appliances table.
        let next_appliance = self.db.sql_ref().query_ref("select max(id) from appliances")?.rows[0]
            [0]
        .as_int()
        .unwrap_or(0)
            + 1;
        self.db.execute_raw(&format!(
            "insert into appliances values ({next_appliance}, '{}', '{}')",
            rocks_db::sql_escape(membership_name),
            rocks_db::sql_escape(graph_root),
        ))?;
        let next_membership = self.db.sql_ref().query_ref("select max(id) from memberships")?.rows
            [0][0]
            .as_int()
            .unwrap_or(0)
            + 1;
        self.db.add_membership(&rocks_db::Membership {
            id: next_membership,
            name: membership_name.to_string(),
            appliance: next_appliance,
            compute,
            basename: basename.to_string(),
        })?;
        Ok(next_membership)
    }

    /// Replace a node's failed hardware: rebind the database row to the
    /// new MAC (identity, address, rack and rank survive) and reinstall
    /// the machine — §3.1's component-replacement flow.
    pub fn replace_node(&mut self, name: &str, new_mac: &str) -> Result<ReinstallReport> {
        rocks_db::insert_ethers::replace_node(&mut self.db, name, new_mac)?;
        self.shoot_nodes(std::slice::from_ref(&name.to_string()))
    }

    /// Drift a node away from its installed state (an experiment gone
    /// wrong, a manual edit). `item` is a file path or package name.
    pub fn inject_drift(&mut self, node: &str, item: &str) -> Result<()> {
        match self.images.get_mut(node) {
            Some(image) => {
                image.drifted.insert(item.to_string());
                Ok(())
            }
            None => Err(RocksError::NoSuchNode(node.to_string())),
        }
    }

    /// Nodes whose image differs from the current distribution — stale
    /// distro, missing packages, or injected drift. The question Rocks
    /// makes unnecessary ("What version of software X do I have on node
    /// Y?", §3.2): with reinstall-as-primitive this is always empty after
    /// a wave.
    pub fn inconsistent_nodes(&mut self) -> Result<Vec<String>> {
        let expected = self.compute_image(Arch::I686);
        let dist = self.distribution.name.clone();
        let mut out = Vec::new();
        for name in self.compute_node_names()? {
            let consistent = self.images.get(&name).is_some_and(|image| {
                image.dist_name == dist && image.packages == expected && image.drifted.is_empty()
            });
            if !consistent {
                out.push(name);
            }
        }
        Ok(out)
    }

    /// The generated service configuration files (a function of the
    /// database, brought up to date on demand, §6.4).
    pub fn reports(&mut self) -> Result<&reports::GeneratedReports> {
        Ok(self.db.reports()?)
    }

    /// Rebuild the distribution from new update/contrib repositories,
    /// keeping the XML profiles. The newest version of every package
    /// wins (§6.2.1).
    pub fn rebuild_distribution(&mut self, updates: &[&Repository]) -> Result<()> {
        let parent = self.distribution.clone();
        let (dist, _report) = build_traced(
            BuildConfig {
                name: parent.name.clone(),
                parent: Some(&parent),
                updates: updates.to_vec(),
                ..Default::default()
            },
            self.kickstart.tracer(),
        )?;
        self.distribution = dist;
        // New RPMs on disk: cached Kickstart skeletons may list stale
        // package sets, so flush them (the rocks-dist invalidation hook).
        self.kickstart.notify_dist_rebuilt();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn macs(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("00:50:8b:e0:44:{i:02x}")).collect()
    }

    fn small_cluster(n: usize) -> Cluster {
        let mut cluster = Cluster::install_frontend("00:30:c1:d8:ac:80", 1).unwrap();
        cluster.integrate_rack("Compute", 0, &macs(n)).unwrap();
        cluster
    }

    #[test]
    fn frontend_install_builds_distribution_and_db() {
        let cluster = Cluster::install_frontend("00:30:c1:d8:ac:80", 1).unwrap();
        assert_eq!(cluster.distribution.name, "rocks-2.2.1");
        assert!(cluster.distribution.repo().get("mpich", Arch::I386).is_some());
        let nodes = cluster.db.nodes().unwrap();
        assert_eq!(nodes.len(), 1);
        assert_eq!(nodes[0].name, "frontend-0");
    }

    #[test]
    fn integrate_rack_names_installs_and_registers() {
        let mut cluster = small_cluster(3);
        let names = cluster.compute_node_names().unwrap();
        assert_eq!(names, vec!["compute-0-0", "compute-0-1", "compute-0-2"]);
        for name in &names {
            let image = cluster.image(name).unwrap();
            assert_eq!(image.dist_name, "rocks-2.2.1");
            assert_eq!(image.install_count, 1);
            assert!(!image.packages.is_empty());
            assert!(cluster.agent(name).is_some());
        }
        // Reports include the new nodes.
        let reports = cluster.reports().unwrap();
        assert!(reports.pbs_nodes.contains("compute-0-2"));
        // NFS mounts re-established.
        assert_eq!(cluster.nfs.mount_count(), 3);
    }

    #[test]
    fn reinstall_clears_drift_and_bumps_count() {
        let mut cluster = small_cluster(2);
        cluster.inject_drift("compute-0-0", "/etc/passwd").unwrap();
        assert_eq!(cluster.inconsistent_nodes().unwrap(), vec!["compute-0-0"]);
        let report = cluster.shoot_nodes(&["compute-0-0".into()]).unwrap();
        assert!(report.total_minutes > 5.0 && report.total_minutes < 15.0);
        assert!(cluster.inconsistent_nodes().unwrap().is_empty());
        assert_eq!(cluster.image("compute-0-0").unwrap().install_count, 2);
        assert_eq!(cluster.image("compute-0-1").unwrap().install_count, 1);
    }

    #[test]
    fn reinstall_all_reaches_every_compute_node() {
        let mut cluster = small_cluster(4);
        for name in cluster.compute_node_names().unwrap() {
            cluster.inject_drift(&name, "/etc/motd").unwrap();
        }
        let report = cluster.reinstall_all().unwrap();
        assert_eq!(report.nodes.len(), 4);
        assert!(cluster.inconsistent_nodes().unwrap().is_empty());
    }

    #[test]
    fn traced_cluster_collects_one_ledger_across_subsystems() {
        let mut cluster =
            Cluster::install_frontend_traced("00:30:c1:d8:ac:80", 1, Tracer::ring_sim(1 << 14))
                .unwrap();
        cluster.integrate_rack("Compute", 0, &macs(3)).unwrap();
        cluster.reinstall_all().unwrap();
        let snap = cluster.telemetry();
        // Every subsystem reported into the same registry.
        assert_eq!(snap.counter("dist.builds"), 1);
        assert!(snap.counter("kickstart.requests") > 0);
        assert_eq!(
            snap.counter("kickstart.requests"),
            snap.counter("kickstart.cache.hits") + snap.counter("kickstart.cache.misses"),
        );
        assert!(snap.counter("sql.lookup_eq") > 0);
        assert!(snap.counter("netsim.installs.completed") >= 6, "rack install + reinstall_all");
        assert!(snap.counter("netsim.flow.completions") > 0);
        // The generation service's Stats are the same counters, not a
        // parallel ledger.
        assert_eq!(snap.counter("kickstart.cache.hits"), cluster.kickstart.stats().hits());
    }

    #[test]
    fn unknown_node_errors() {
        let mut cluster = small_cluster(1);
        assert!(matches!(cluster.shoot_nodes(&["compute-9-9".into()]), Err(RocksError::Db(_))));
        assert!(matches!(cluster.inject_drift("ghost", "/x"), Err(RocksError::NoSuchNode(_))));
    }

    #[test]
    fn rebuild_with_update_makes_nodes_inconsistent_until_reinstall() {
        let mut cluster = small_cluster(2);
        let mut updates = Repository::new("updates");
        updates.insert(
            rocks_rpm::Package::builder("glibc", "2.2.4-24")
                .arch(Arch::I686)
                .size(14 << 20)
                .build(),
        );
        cluster.rebuild_distribution(&[&updates]).unwrap();
        // Old images are now stale.
        assert_eq!(cluster.inconsistent_nodes().unwrap().len(), 2);
        cluster.reinstall_all().unwrap();
        assert!(cluster.inconsistent_nodes().unwrap().is_empty());
        // And the new image carries the updated glibc.
        let image = cluster.image("compute-0-0").unwrap();
        assert!(image.packages.iter().any(|p| p.contains("glibc-2.2.4-24")));
    }

    #[test]
    fn monitored_shoot_produces_transcripts() {
        let mut cluster = small_cluster(2);
        let names: Vec<String> = vec!["compute-0-0".into(), "compute-0-1".into()];
        let (report, feeds) = cluster.shoot_nodes_monitored(&names).unwrap();
        assert_eq!(report.nodes.len(), 2);
        assert_eq!(feeds.len(), 2);
        for (name, feed) in &feeds {
            let backlog = feed.backlog();
            assert!(backlog.iter().any(|l| l.contains("requesting kickstart")), "{name}");
            assert!(
                backlog.iter().any(|l| l.contains(&format!("{name}: up"))),
                "{name}: {backlog:?}"
            );
            // Late subscribers still see the whole install.
            let rx = feed.subscribe();
            assert_eq!(rx.try_iter().count(), backlog.len());
        }
        // Monitored shoot updates state exactly like the plain one.
        assert_eq!(cluster.image("compute-0-0").unwrap().install_count, 2);
    }

    #[test]
    fn kickstart_served_for_integrated_node() {
        let cluster = small_cluster(1);
        let record = cluster.db.node_by_name("compute-0-0").unwrap();
        let ks = cluster
            .kickstart
            .generate_for_request(&cluster.db, &record.ip.to_string(), Arch::I686)
            .unwrap();
        assert!(ks.render().contains("--hostname compute-0-0"));
    }

    #[test]
    fn mass_generation_matches_per_request_cgi() {
        let cluster = small_cluster(4);
        let profiles = cluster.generate_kickstarts(4).unwrap();
        assert_eq!(profiles.len(), 5); // 4 computes + frontend
        for profile in &profiles {
            let cold = cluster
                .generator()
                .generate_for_request(&cluster.db, &profile.ip, Arch::I686)
                .unwrap();
            assert_eq!(profile.kickstart.render(), cold.render(), "{}", profile.node);
        }
    }

    #[test]
    fn dist_rebuild_flushes_kickstart_cache() {
        let mut cluster = small_cluster(1);
        cluster.generate_kickstarts(1).unwrap();
        let misses_before = cluster.kickstart.stats().misses();
        let mut updates = Repository::new("updates");
        updates.insert(
            rocks_rpm::Package::builder("glibc", "2.2.4-24")
                .arch(Arch::I686)
                .size(14 << 20)
                .build(),
        );
        cluster.rebuild_distribution(&[&updates]).unwrap();
        cluster.generate_kickstarts(1).unwrap();
        assert!(
            cluster.kickstart.stats().misses() > misses_before,
            "stale skeletons must be rebuilt after a dist rebuild"
        );
    }

    #[test]
    fn custom_appliance_end_to_end() {
        // §6.1/§6.2.3: a storage appliance class built from the existing
        // nfs-server graph root.
        let mut cluster = small_cluster(1);
        cluster.add_appliance("Storage", "storage", "nfs-server", false).unwrap();
        let records =
            cluster.integrate_rack("Storage", 2, &["00:50:8b:a5:4d:b1".to_string()]).unwrap();
        assert_eq!(records[0].name, "storage-2-0");

        // The CGI flow resolves the new appliance to its graph root.
        let ip = records[0].ip.to_string();
        let ks = cluster.kickstart.generate_for_request(&cluster.db, &ip, Arch::I686).unwrap();
        let text = ks.render();
        assert!(text.contains("nfs appliance"), "storage node got wrong appliance:\n{text}");
        assert!(text.contains("exportfs -a"));
        // Storage nodes are not compute: PBS never sees them.
        let reports = cluster.reports().unwrap();
        assert!(!reports.pbs_nodes.contains("storage-2-0"));
        assert!(reports.hosts.contains("storage-2-0"));
    }

    #[test]
    fn replace_node_rebinds_and_reinstalls() {
        let mut cluster = small_cluster(2);
        let before = cluster.db.node_by_name("compute-0-1").unwrap();
        let report = cluster.replace_node("compute-0-1", "00:50:8b:ff:ff:01").unwrap();
        assert_eq!(report.nodes, vec!["compute-0-1".to_string()]);
        let after = cluster.db.node_by_name("compute-0-1").unwrap();
        assert_eq!(after.ip, before.ip);
        assert_eq!(after.mac, "00:50:8b:ff:ff:01");
        assert_eq!(cluster.image("compute-0-1").unwrap().install_count, 2);
        assert!(cluster.inconsistent_nodes().unwrap().is_empty());
    }

    #[test]
    fn rebooted_mac_is_not_reintegrated() {
        let mut cluster = small_cluster(2);
        let before = cluster.db.nodes().unwrap().len();
        // The same rack boots again (e.g. power failure): no new rows.
        let records = cluster.integrate_rack("Compute", 0, &macs(2)).unwrap();
        assert!(records.is_empty());
        assert_eq!(cluster.db.nodes().unwrap().len(), before);
    }
}
