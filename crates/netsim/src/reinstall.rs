//! The mass-reinstall engine: cluster database → Kickstart generation
//! service → network simulation, end to end.
//!
//! The paper's Table I experiment is really two systems working together:
//! the frontend's CGI generator produces one Kickstart profile per
//! requesting node (§6.1), and the HTTP server then feeds every node its
//! profile and packages (§6.3). This module composes the reproduction's
//! halves the same way: it registers the cluster in a [`ClusterDb`]
//! (as `insert-ethers` would), asks a shared [`GenerationService`] to
//! generate every profile across a worker pool, sizes the simulated
//! kickstart transfer from the *actual* rendered bytes, and then runs the
//! contention simulation.

use crate::cluster::{ClusterSim, ReinstallResult};
use crate::config::SimConfig;
use crate::engine::SimError;
use rocks_db::insert_ethers::{register_frontend, DhcpRequest, InsertEthers};
use rocks_db::ClusterDb;
use rocks_kickstart::{GeneratedProfile, GenerationService};
use rocks_rpm::Arch;
use std::fmt;
use std::time::Instant;

/// Why a mass reinstall could not produce a report: either profile
/// generation failed, or the simulated cluster wedged mid-install.
#[derive(Debug)]
pub enum ReinstallError {
    /// Kickstart generation failed for some node.
    Generation(rocks_kickstart::KsError),
    /// The network simulation stalled (see [`SimError::Stalled`]).
    Sim(SimError),
    /// A node burnt its whole retry budget across every configured
    /// install server and gave up (retrying install protocol).
    AllServersDown {
        /// Hostname of the node that gave up.
        node: String,
        /// Fetch attempts it made on the target that exhausted the
        /// budget (`attempts_per_server × n_servers`).
        attempts: u32,
    },
}

impl fmt::Display for ReinstallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReinstallError::Generation(e) => write!(f, "kickstart generation failed: {e}"),
            ReinstallError::Sim(e) => write!(f, "{e}"),
            ReinstallError::AllServersDown { node, attempts } => write!(
                f,
                "{node}: all install servers down — gave up after {attempts} fetch attempts"
            ),
        }
    }
}

impl std::error::Error for ReinstallError {}

impl From<rocks_kickstart::KsError> for ReinstallError {
    fn from(e: rocks_kickstart::KsError) -> Self {
        ReinstallError::Generation(e)
    }
}

impl From<SimError> for ReinstallError {
    fn from(e: SimError) -> Self {
        ReinstallError::Sim(e)
    }
}

/// Everything one mass reinstall produced: the per-node profiles, the
/// simulated network outcome, and how long (real time) generation took.
#[derive(Debug)]
pub struct MassReinstallReport {
    /// One generated profile per kickstartable node, sorted by name.
    pub profiles: Vec<GeneratedProfile>,
    /// The simulated reinstall of the compute nodes.
    pub result: ReinstallResult,
    /// Real seconds spent generating profiles (the frontend-side cost the
    /// cache and worker pool exist to shrink).
    pub generation_seconds: f64,
    /// Total fetch attempts the cluster issued (install-protocol retries
    /// included).
    pub install_attempts: u64,
    /// Kickstart CGI requests beyond the first per node — the extra
    /// frontend load the retrying protocol generated. Also recorded in
    /// the generation service's [`Stats`](rocks_kickstart::Stats).
    pub kickstart_refetches: u64,
}

/// Register a frontend plus `n_computes` compute nodes the way
/// `insert-ethers` does during §6.4 integration: frontend first, then one
/// DHCP observation per booting node in rack order.
pub fn provision_cluster(n_computes: usize) -> ClusterDb {
    let mut db = ClusterDb::new();
    register_frontend(&mut db, "00:30:c1:d8:ac:80", "frontend-0")
        .expect("frontend registration on a fresh database cannot fail");
    let mut session = InsertEthers::start(&mut db, "Compute", 0)
        .expect("insert-ethers session on a fresh database cannot fail");
    for i in 0..n_computes {
        session
            .observe(&DhcpRequest { mac: format!("00:50:8b:e0:{:02x}:{:02x}", i / 256, i % 256) })
            .expect("fresh MACs cannot collide");
    }
    db
}

/// Run one whole-cluster reinstall: generate every node's profile through
/// `service` (fanning out over `threads` workers), then simulate the
/// download/install storm for the compute nodes under `cfg`.
pub fn mass_reinstall(
    mut cfg: SimConfig,
    db: &ClusterDb,
    service: &GenerationService,
    arch: Arch,
    threads: usize,
) -> Result<MassReinstallReport, ReinstallError> {
    let started = Instant::now();
    let profiles = service.generate_all(db, arch, threads)?;
    let generation_seconds = started.elapsed().as_secs_f64();

    let compute_names: std::collections::BTreeSet<String> = db
        .compute_nodes()
        .map_err(rocks_kickstart::KsError::from)?
        .into_iter()
        .map(|n| n.name)
        .collect();
    let compute_profiles: Vec<&GeneratedProfile> =
        profiles.iter().filter(|p| compute_names.contains(&p.node)).collect();

    // Size the simulated kickstart fetch from the real rendered profile
    // instead of the calibration constant.
    if let Some(profile) = compute_profiles.first() {
        cfg.kickstart_bytes = profile.kickstart.as_str().len() as u64;
    }

    // The simulation reports into the service's tracer (disabled by
    // default), so generation metrics and install metrics land in one
    // registry — a single source of truth for the whole reinstall.
    let mut sim = ClusterSim::new(cfg, compute_profiles.len());
    sim.set_tracer(service.tracer().clone());
    let result = sim.try_run_reinstall()?;

    // Surface the install protocol's frontend-side cost: every kickstart
    // request past the first per node is a CGI refetch the generation
    // service absorbed.
    let kickstart_requests: u64 = sim.nodes().iter().map(|n| u64::from(n.kickstart_requests)).sum();
    let kickstart_refetches = kickstart_requests.saturating_sub(sim.nodes().len() as u64);
    service.stats().record_kickstart_refetches(kickstart_refetches);
    let install_attempts = result.total_attempts();

    Ok(MassReinstallReport {
        profiles,
        result,
        generation_seconds,
        install_attempts,
        kickstart_refetches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocks_kickstart::KickstartGenerator;

    fn small_cfg(seed: u64) -> SimConfig {
        SimConfig::paper_testbed(seed).bundled(12)
    }

    fn service() -> GenerationService {
        GenerationService::new(KickstartGenerator::new(
            rocks_kickstart::profiles::default_profiles(),
            "10.1.1.1",
            "install/rocks-dist",
        ))
    }

    #[test]
    fn mass_reinstall_generates_and_installs_every_node() {
        let db = provision_cluster(8);
        let svc = service();
        let report = mass_reinstall(small_cfg(1), &db, &svc, Arch::I686, 4).unwrap();
        // 8 computes + the frontend get profiles; 8 computes reinstall.
        assert_eq!(report.profiles.len(), 9);
        assert_eq!(report.result.completed(), 8);
        assert!(report.generation_seconds >= 0.0);
    }

    #[test]
    fn generation_amortizes_graph_traversals() {
        let db = provision_cluster(16);
        let svc = service();
        mass_reinstall(small_cfg(1), &db, &svc, Arch::I686, 8).unwrap();
        // 17 nodes, 2 appliances: exactly 2 skeleton builds... plus at
        // most a few duplicate builds from workers racing the first miss.
        assert!(svc.stats().misses() <= 8, "misses {}", svc.stats().misses());
        assert!(svc.stats().hits() >= 9, "hits {}", svc.stats().hits());
    }

    #[test]
    fn healthy_mass_reinstall_records_no_refetches() {
        let db = provision_cluster(4);
        let svc = service();
        let mut cfg = small_cfg(1);
        cfg.retry = Some(crate::config::RetryPolicy::standard());
        let report = mass_reinstall(cfg, &db, &svc, Arch::I686, 2).unwrap();
        assert_eq!(report.kickstart_refetches, 0);
        assert_eq!(svc.stats().kickstart_refetches(), 0);
        // One kickstart + one fetch per bundle per node.
        assert_eq!(report.install_attempts, 4 * 13);
    }

    #[test]
    fn registry_counters_cannot_disagree_with_report() {
        // The duplicate-accounting guard: the report's install_attempts /
        // kickstart_refetches, the ReinstallResult totals, the service's
        // Stats, and the shared registry must all be views of the same
        // numbers.
        let db = provision_cluster(6);
        let svc = GenerationService::with_tracer(
            KickstartGenerator::new(
                rocks_kickstart::profiles::default_profiles(),
                "10.1.1.1",
                "install/rocks-dist",
            ),
            rocks_trace::Tracer::ring_sim(1 << 14),
        );
        let report = mass_reinstall(small_cfg(3), &db, &svc, Arch::I686, 2).unwrap();
        let snap = svc.registry().snapshot();

        assert_eq!(snap.counter("netsim.fetch.attempts"), report.install_attempts);
        assert_eq!(snap.counter("netsim.fetch.attempts"), report.result.total_attempts());
        assert_eq!(snap.counter("netsim.failovers"), report.result.total_failovers());
        assert_eq!(snap.counter("netsim.installs.completed"), report.result.completed() as u64);
        // Refetch bridge: CGI requests beyond the first per node, counted
        // once by the nodes and once by the service — they must agree.
        let n = report.result.per_node_attempts.len() as u64;
        assert_eq!(snap.counter("netsim.kickstart.requests") - n, report.kickstart_refetches);
        assert_eq!(snap.counter("kickstart.refetches"), report.kickstart_refetches);
        assert_eq!(svc.stats().kickstart_refetches(), report.kickstart_refetches);
        // Generation accounting flows through the same registry.
        assert_eq!(snap.counter("kickstart.requests"), svc.stats().requests());
        assert_eq!(
            snap.counter("kickstart.cache.hits") + snap.counter("kickstart.cache.misses"),
            svc.stats().requests()
        );
    }

    #[test]
    fn failover_counters_match_result_under_server_fault() {
        let mut cfg = SimConfig::paper_testbed(11).bundled(12);
        cfg.n_servers = 2;
        cfg.retry = Some(crate::config::RetryPolicy::standard());
        let tracer = rocks_trace::Tracer::ring_sim(1 << 12);
        let mut sim = ClusterSim::new(cfg, 6);
        sim.set_tracer(tracer.clone());
        sim.inject_fault_at(5.0, crate::cluster::Fault::ServerDown(0));
        let result = sim
            .try_run_reinstall()
            .expect("failover scenario: second replica must carry the cluster to completion");
        let snap = tracer
            .registry()
            .expect("failover scenario: ring_sim tracer is built with a registry")
            .snapshot();
        assert!(result.total_failovers() > 0, "fault must force failovers");
        assert_eq!(snap.counter("netsim.failovers"), result.total_failovers());
        assert_eq!(snap.counter("netsim.fetch.attempts"), result.total_attempts());
        assert_eq!(snap.counter("netsim.faults"), 1);
        // Per-link byte gauges mirror the engine ledger bit-for-bit.
        for (i, &bytes) in sim.link_bytes().iter().enumerate() {
            let name = format!("netsim.link.bytes.{i}");
            assert_eq!(snap.gauge(&name).to_bits(), bytes.to_bits(), "{name}");
        }
    }

    #[test]
    fn kickstart_transfer_sized_from_rendered_profile() {
        let db = provision_cluster(2);
        let svc = service();
        let report = mass_reinstall(small_cfg(1), &db, &svc, Arch::I686, 1).unwrap();
        let compute = report
            .profiles
            .iter()
            .find(|p| p.node == "compute-0-0")
            .expect("compute profile present");
        let rendered = compute.kickstart.as_str().len() as f64;
        // The simulated transfer must include at least those bytes.
        let delivered: f64 = report.result.server_bytes.iter().sum();
        assert!(delivered > rendered * 2.0);
    }
}
