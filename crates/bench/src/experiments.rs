//! One function per paper table / figure / quantitative claim.

use rocks_db::{ClusterDb, Ipv4, Membership, NodeRecord};
use rocks_kickstart::profiles;
use rocks_netsim::{
    max_full_speed_concurrency, serial_download_benchmark, table1_sweep, ClusterSim,
    NetsimInstallBackend, SimConfig, TierConfig,
};
use rocks_pbs::{
    run_rollout, run_rollout_sweep, schedule, standard_rollout_invariants, JobArrival, NodeState,
    PbsServer, RolloutConfig,
};
use rocks_rpm::{synth, Repository, UpdateStream};
use rocks_serve::{
    run_serve, run_serve_sweep, Arrivals, ModelBackend, RealBackend, ServeBackend, ServeConfig,
    ServeFault, ServeReport, Workload,
};

/// Paper values for Table I: (nodes, minutes).
pub(crate) const PAPER_TABLE1: &[(usize, f64)] =
    &[(1, 10.3), (2, 9.8), (4, 10.1), (8, 10.4), (16, 11.1), (32, 13.7)];

/// Table I: total reinstall time vs. concurrent node count.
pub(crate) fn table1_data(seed: u64) -> Vec<(usize, f64)> {
    let ns: Vec<usize> = PAPER_TABLE1.iter().map(|(n, _)| *n).collect();
    table1_sweep(&ns, seed)
}

/// Render Table I with the paper's numbers side-by-side.
pub(crate) fn table1() -> String {
    let measured = table1_data(1);
    let mut out = String::new();
    out.push_str("Table I. Reinstallation performance (minutes)\n");
    out.push_str("Nodes | Paper | Measured (simulated testbed)\n");
    out.push_str("------+-------+------------------------------\n");
    for ((n, paper), (_, ours)) in PAPER_TABLE1.iter().zip(&measured) {
        out.push_str(&format!("{n:>5} | {paper:>5.1} | {ours:>5.1}\n"));
    }
    out
}

/// Build the exact database shown in Table II (plus its two extra
/// memberships, NFS and Web Server, which Table III's default six do not
/// include).
pub(crate) fn table2_db() -> ClusterDb {
    let mut db = ClusterDb::new();
    db.add_membership(&Membership {
        id: 7,
        name: "NFS".into(),
        appliance: 3,
        compute: false,
        basename: "nfs".into(),
    })
    .expect("NFS membership");
    db.add_membership(&Membership {
        id: 8,
        name: "Web Server".into(),
        appliance: 3,
        compute: false,
        basename: "web".into(),
    })
    .expect("web membership");

    type Row = (i64, &'static str, &'static str, i64, i64, i64, [u8; 4], &'static str);
    let rows: &[Row] = &[
        (1, "00:30:c1:d8:ac:80", "frontend-0", 1, 0, 0, [10, 1, 1, 1], "Gateway machine"),
        (
            2,
            "00:01:e7:1a:be:00",
            "network-0-0",
            4,
            0,
            0,
            [10, 255, 255, 253],
            "Switch for Cabinet 0",
        ),
        (
            3,
            "00:50:8b:a5:4d:b1",
            "nfs-0-0",
            7,
            0,
            0,
            [10, 255, 255, 249],
            "NFS Server in Cabinet 0",
        ),
        (4, "00:50:8b:e0:3a:a7", "compute-0-0", 2, 0, 0, [10, 255, 255, 245], "Compute node"),
        (5, "00:50:8b:e0:44:5e", "compute-0-1", 2, 0, 1, [10, 255, 255, 244], "Compute node"),
        (6, "00:50:8b:e0:40:95", "compute-0-2", 2, 0, 2, [10, 255, 255, 243], "Compute node"),
        (7, "00:50:8b:e0:40:93", "compute-0-3", 2, 0, 3, [10, 255, 255, 242], "Compute node"),
        (
            8,
            "00:50:8b:c5:c7:d3",
            "web-1-0",
            8,
            1,
            0,
            [10, 255, 255, 246],
            "Web Server in Cabinet 1",
        ),
    ];
    for (id, mac, name, membership, rack, rank, ip, comment) in rows {
        db.add_node(
            &NodeRecord::new(
                *id,
                mac,
                name,
                *membership,
                *rack,
                *rank,
                Ipv4::new(ip[0], ip[1], ip[2], ip[3]),
            )
            .with_comment(comment),
        )
        .expect("table II row");
    }
    db
}

/// Table II rendered as the MySQL client would.
pub(crate) fn table2() -> String {
    let db = table2_db();
    let result = db
        .sql_ref()
        .query_ref(
            "select id, mac, name, membership, rack, rank, ip, comment from nodes order by id",
        )
        .expect("nodes query");
    format!("Table II. The Nodes table in the cluster database\n{}", result.render_ascii())
}

/// Table III rendered from the seeded default memberships.
pub(crate) fn table3() -> String {
    let db = ClusterDb::new();
    let result = db
        .sql_ref()
        .query_ref("select id, name, appliance, compute from memberships order by id")
        .expect("memberships query");
    format!("Table III. The Memberships table\n{}", result.render_ascii())
}

/// Figure 1: the Rocks hardware architecture, rendered from the Table II
/// cluster's database content.
pub(crate) fn fig1() -> String {
    let db = table2_db();
    let nodes = db.nodes().expect("nodes");
    let computes: Vec<&NodeRecord> = nodes.iter().filter(|n| n.membership == 2).collect();
    let mut out = String::new();
    out.push_str("Figure 1. Rocks hardware architecture\n\n");
    out.push_str("            Public Ethernet\n");
    out.push_str("                  |\n");
    out.push_str("           +------+------+\n");
    out.push_str("           | frontend-0  |  (eth1: public, eth0: cluster)\n");
    out.push_str("           +------+------+\n");
    out.push_str("                  | eth0\n");
    out.push_str("        +---------+---------+-----------------+\n");
    out.push_str("        |  Ethernet switch (network-0-0)      |\n");
    out.push_str("        +--+----------+----------+---------+--+\n");
    let names: Vec<String> = computes.iter().map(|n| n.name.clone()).collect();
    out.push_str("           |          |          |         |\n");
    out.push_str(&format!(
        "      {}\n",
        names.iter().map(|n| format!("[{n}]")).collect::<Vec<_>>().join(" ")
    ));
    out.push_str("           |          |          |         |\n");
    out.push_str("        +--+----------+----------+---------+--+\n");
    out.push_str("        |  Myrinet switch (optional HPC net)  |\n");
    out.push_str("        +-------------------------------------+\n");
    out.push_str("        [ network-attached power distribution unit ]\n");
    out
}

/// Figure 2: the DHCP-server node file, parsed from the paper's XML and
/// re-emitted through the framework.
pub(crate) fn fig2() -> String {
    let set = profiles::default_profiles();
    let dhcp = &set.nodes["dhcp-server"];
    let mut out = String::new();
    out.push_str("Figure 2. XML node file: DHCP server configuration\n\n");
    out.push_str("source XML (as shipped):\n");
    out.push_str(profiles::DHCP_SERVER_XML);
    out.push_str("\nparsed module:\n");
    out.push_str(&format!("  description: {}\n", dhcp.description));
    for pkg in &dhcp.packages {
        out.push_str(&format!("  package: {}\n", pkg.name));
    }
    for post in &dhcp.posts {
        out.push_str(&format!("  post ({} lines of shell)\n", post.script.lines().count()));
    }
    out
}

/// Figure 3: the graph-file excerpt.
pub(crate) fn fig3() -> String {
    let set = profiles::default_profiles();
    let mut out = String::new();
    out.push_str("Figure 3. An excerpt from the XML graph file\n\n");
    out.push_str("<graph>\n");
    for edge in set.graph.edges.iter().take(10) {
        out.push_str(&format!("  <edge from=\"{}\" to=\"{}\"/>\n", edge.from, edge.to));
    }
    out.push_str("  ...\n</graph>\n");
    out
}

/// Figure 4: the graph visualization (DOT) plus the paper's example
/// traversal.
pub(crate) fn fig4() -> String {
    let set = profiles::default_profiles();
    let traversal =
        set.graph.traverse("compute", rocks_rpm::Arch::I686).expect("compute is a root");
    format!(
        "Figure 4. Visualization of the XML graph description\n\n{}\n\
         compute-appliance traversal: {}\n",
        rocks_kickstart::to_dot(&set.graph),
        traversal.join(" -> "),
    )
}

/// Figure 5: the rocks-dist build pipeline report.
pub(crate) fn fig5() -> String {
    let stock = rocks_dist::Distribution::stock("redhat-7.2", synth::redhat72(1));
    let community = synth::community();
    let local = synth::rocks_local();
    let (_dist, report) = rocks_dist::build(rocks_dist::BuildConfig {
        name: "rocks-2.2.1".into(),
        parent: Some(&stock),
        contrib: vec![&community],
        local: vec![&local],
        ..Default::default()
    })
    .expect("build succeeds");
    format!(
        "Figure 5. Building a Rocks distribution with rocks-dist\n\n{}",
        report.render("rocks-2.2.1")
    )
}

/// Figure 6: the object-oriented distribution hierarchy.
pub(crate) fn fig6() -> String {
    use rocks_dist::{build_chain, Level};
    let redhat = rocks_dist::Distribution::stock("redhat-7.2", synth::redhat72(1));
    let mut campus = Repository::new("campus");
    campus.insert(rocks_rpm::Package::builder("campus-tools", "1.0-1").size(1 << 20).build());
    let mut dept = Repository::new("dept");
    dept.insert(rocks_rpm::Package::builder("gamess", "6.0-1").size(40 << 20).build());
    let chain = build_chain(
        &redhat,
        &[
            Level {
                name: "rocks-2.2.1".into(),
                contrib: vec![synth::community()],
                local: vec![synth::rocks_local()],
                ..Default::default()
            },
            Level::with_contrib("ucsd-campus", campus),
            Level::with_contrib("chem-dept", dept),
        ],
    )
    .expect("chain builds");
    let mut out = String::new();
    out.push_str("Figure 6. Object-oriented model of rocks-dist\n\n");
    out.push_str("redhat-7.2 (stock mirror)\n");
    for (dist, report) in &chain {
        out.push_str(&format!(
            "  -> {} : +{} pkgs, {} links, {:.1} MB materialized of {:.1} MB logical\n",
            dist.name,
            report.contrib_added + report.local_added + report.added_by_updates,
            report.links,
            report.materialized_bytes as f64 / (1024.0 * 1024.0),
            report.logical_bytes as f64 / (1024.0 * 1024.0),
        ));
    }
    out.push_str("\nleaf sees software from every level: ");
    let leaf = &chain.last().expect("non-empty").0;
    for pkg in ["glibc", "mpich", "rocks-dist", "campus-tools", "gamess"] {
        let found = leaf.repo().best_for(pkg, rocks_rpm::Arch::I686).is_some();
        out.push_str(&format!("{pkg}={} ", if found { "yes" } else { "MISSING" }));
    }
    out.push('\n');
    out
}

/// Figure 7: the eKV screen, reconstructed at the paper's snapshot
/// (38 of 162 packages complete).
pub(crate) fn fig7() -> String {
    let cfg = SimConfig::paper_testbed(1);
    let mut sim = ClusterSim::new(cfg.clone(), 1);
    sim.run_reinstall();
    let node = sim.node(0);

    // Timestamps of each "installing" log line.
    let installs: Vec<&rocks_netsim::NodeLogLine> =
        node.log.iter().filter(|l| l.text.contains("installing")).collect();
    let total_bytes: u64 = cfg.packages.iter().map(|p| p.transfer_bytes).sum();
    let mut screen = rocks_ekv::InstallScreen::new(cfg.packages.len(), total_bytes);
    let start = installs.first().expect("installs happened").at;
    let snapshot = 38.min(installs.len() - 1);
    for (i, line) in installs.iter().enumerate().take(snapshot + 1) {
        let pkg = &cfg.packages[i];
        let elapsed = (line.at - start) as f64 / 1e6;
        if i < snapshot {
            screen.begin_package(&pkg.name, pkg.transfer_bytes, "package payload", elapsed);
            screen.finish_package(elapsed);
        } else {
            screen.begin_package(
                &pkg.name,
                pkg.transfer_bytes,
                "The most commonly-used entries in the /dev directory.",
                elapsed,
            );
        }
    }
    format!(
        "Figure 7. Shoot-node and eKV: the Kickstart screen over Ethernet\n\n{}\n\
         (live transcript available over TCP via rocks-ekv; see examples/ekv_monitor.rs)\n",
        screen.render()
    )
}

/// §6.3 micro-benchmark: serial download throughput.
pub(crate) fn micro_benchmark() -> String {
    let cfg = SimConfig::paper_testbed(1);
    let mbps = serial_download_benchmark(&cfg);
    format!(
        "Micro-benchmark (Section 6.3): serial download of a compute node's RPMs\n\
         paper:    7-8 MB/s\n\
         measured: {mbps:.1} MB/s\n"
    )
}

/// §6.3: Gigabit Ethernet supports 7.0–9.5× the concurrent full-speed
/// reinstalls of Fast Ethernet.
pub(crate) fn gige_scaling() -> String {
    let fast =
        max_full_speed_concurrency(&|seed| SimConfig::paper_testbed(seed).bundled(12), 0.05, 256);
    let gige = max_full_speed_concurrency(&|seed| SimConfig::gige(seed).bundled(12), 0.05, 256);
    let ratio = gige as f64 / fast as f64;
    format!(
        "Gigabit scaling (Section 6.3): concurrent full-speed reinstalls\n\
         Fast Ethernet server: {fast} nodes\n\
         Gigabit server:       {gige} nodes\n\
         ratio:                {ratio:.1}x   (paper: 7.0-9.5x)\n"
    )
}

/// §6.3: N replicated web servers support N× the concurrency.
pub(crate) fn replica_scaling() -> String {
    let mut out = String::new();
    out.push_str("Replication scaling (Section 6.3): full-speed concurrency vs servers\n");
    out.push_str("servers | full-speed nodes | vs 1 server\n");
    let mut base = 0usize;
    for n in [1usize, 2, 4] {
        let knee = max_full_speed_concurrency(
            &|seed| SimConfig::replicated(n, seed).bundled(12),
            0.05,
            256,
        );
        if n == 1 {
            base = knee;
        }
        out.push_str(&format!("{n:>7} | {knee:>16} | {:.1}x\n", knee as f64 / base as f64));
    }
    out.push_str("(paper: N servers -> N times the concurrent full-speed reinstalls)\n");
    out
}

/// §6.3's range claim: "compute node reinstallation time is between 5
/// and 10 minutes. The upper bound is for compute nodes with a Myrinet
/// card, which rebuild the driver from source." Sweep the two factors
/// that set the range: the Myrinet rebuild and the size of the appliance.
pub(crate) fn reinstall_range() -> String {
    let mut out = String::new();
    out.push_str("Reinstall-time range (Section 6.3): paper claims 5-10 minutes\n");
    out.push_str("appliance profile                  | Myrinet | minutes\n");
    for (label, slim, myrinet) in [
        ("full compute (162 pkgs, 225 MB)", false, true),
        ("full compute, Ethernet only", false, false),
        ("minimal appliance (~100 MB)", true, false),
    ] {
        let mut cfg = SimConfig::paper_testbed(1);
        cfg.with_myrinet = myrinet;
        if slim {
            // A lean appliance: half the packages, under half the bytes
            // (e.g. a dedicated NFS or web appliance, Table II's nfs-0-0).
            cfg = cfg.bundled(80);
            cfg.packages.truncate(36); // ~100 MB
            cfg.postconfig_s = (40.0, 0.10);
        }
        let mut sim = ClusterSim::new(cfg, 1);
        let result = sim.run_reinstall();
        out.push_str(&format!(
            "{label:<34} | {:<7} | {:.1}\n",
            if myrinet { "yes" } else { "no" },
            result.total_minutes()
        ));
    }
    out.push_str("(the Myrinet source rebuild sets the 10-minute upper bound;\n");
    out.push_str(" lean Ethernet-only appliances land near the 5-minute floor)\n");
    out
}

/// Topology extension (Figure 1's two-tier Ethernet): where does the
/// knee move when nodes sit behind cabinet switches? With the frontend
/// on Gigabit, the per-cabinet Fast-Ethernet uplink becomes the shared
/// bottleneck — quantifying the paper's observation that "yet another
/// network increases ... the management burden" has a performance twin.
pub(crate) fn cabinet_topology() -> String {
    let mut out = String::new();
    out.push_str("Cabinet topology (Figure 1 extension): 32 nodes, GigE frontend\n");
    out.push_str("wiring                                | total minutes\n");
    let mut gige = SimConfig::gige(1).bundled(24);
    gige.per_stream_bps = 8.0e6;
    for (label, cfg) in [
        ("flat: all nodes on frontend switch", gige.clone()),
        ("1 cabinet of 32 (100 Mbit uplink)", gige.clone().with_cabinets(32, 11.0e6)),
        ("2 cabinets of 16", gige.clone().with_cabinets(16, 11.0e6)),
        ("4 cabinets of 8", gige.clone().with_cabinets(8, 11.0e6)),
    ] {
        let mut sim = ClusterSim::new(cfg, 32);
        let result = sim.run_reinstall();
        out.push_str(&format!("{label:<37} | {:.1}\n", result.total_minutes()));
    }
    out.push_str("(each cabinet uplink carries its own 100 Mbit knee; enough\n");
    out.push_str(" cabinets restore the flat-network install time)\n");
    out
}

/// Server-utilization timeline during concurrent reinstalls: the visual
/// behind Table I's knee. Below saturation the server idles between
/// bursts; at 32 nodes it pins at 100 % for the whole download window.
pub(crate) fn utilization_timeline() -> String {
    let mut out = String::new();
    out.push_str("Server utilization during a concurrent reinstall (30 s buckets)\n");
    let bars = [" ", ".", ":", "-", "=", "#"];
    for n in [4usize, 8, 32] {
        let mut sim = ClusterSim::new(SimConfig::paper_testbed(1), n);
        sim.run_reinstall();
        let util = sim.server_utilization(30.0);
        let spark: String = util
            .iter()
            .map(|u| bars[((u * (bars.len() - 1) as f64).round() as usize).min(bars.len() - 1)])
            .collect();
        let mean = util.iter().sum::<f64>() / util.len() as f64;
        out.push_str(&format!("{n:>3} nodes |{spark}| mean {:.0}%\n", mean * 100.0));
    }
    out.push_str("(scale: ' '=idle .. '#'=saturated; each cell is 30 s)\n");
    out
}

/// §6.2.1: the update-tracking experiment. Replays the Red Hat 6.2 year
/// (124 updates, 74 security) and measures security exposure under two
/// policies:
///
/// * **rocks-dist auto-tracking** — the mirror refreshes nightly and the
///   cluster reinstalls on every security advisory (the paper's "If Red
///   Hat ships it, so do we" plus reinstall-as-primitive),
/// * **manual quarterly** — an administrator folds updates in every 90
///   days, the pre-Rocks status quo.
pub(crate) fn update_tracking() -> String {
    let base = synth::redhat72(1);
    let stream = UpdateStream::paper_stream(&base, 42);
    let security_days: Vec<u32> = stream
        .updates()
        .iter()
        .filter(|u| u.kind == rocks_rpm::UpdateKind::Security)
        .map(|u| u.day)
        .collect();

    // Exposure = days from advisory to the fix being installed cluster-wide.
    let auto_exposure: u32 = security_days
        .iter()
        .map(|_| 1u32) // mirrored overnight, reinstalled next day
        .sum();
    let quarterly_exposure: u32 = security_days
        .iter()
        .map(|day| {
            let next_quarter = ((day / 90) + 1) * 90;
            next_quarter.min(365) - day
        })
        .sum();

    let n = security_days.len() as f64;
    format!(
        "Update tracking (Section 6.2.1): Red Hat 6.2 replay over one year\n\
         updates in stream:      {} ({} security)  — one every {:.1} days\n\
         policy                  | total exposure (vuln-days) | mean days unpatched\n\
         rocks-dist auto-track   | {:>26} | {:>19.1}\n\
         manual quarterly update | {:>26} | {:>19.1}\n",
        stream.updates().len(),
        security_days.len(),
        stream.mean_interval_days(),
        auto_exposure,
        auto_exposure as f64 / n,
        quarterly_exposure,
        quarterly_exposure as f64 / n,
    )
}

/// §1/§3 ablation: reinstall vs cfengine-style verify-and-repair.
pub(crate) fn ablation() -> String {
    use rocks_core::{bring_to_known_state, synth_drift, Strategy, VerifyModel};
    let model = VerifyModel::default();
    let mut out = String::new();
    out.push_str("Ablation (Sections 1, 3): reinstall vs verify-and-repair\n");
    out.push_str("(time to a known-good state for one node; drift mix 70% config,\n");
    out.push_str(" 25% package, 5% core-component)\n\n");
    out.push_str("drifted items | reinstall (s) | verify+repair (s) | verify known-good?\n");
    for n in [0usize, 1, 2, 5, 10, 20, 50, 100] {
        let drifts = synth_drift("node", n, 70, 25);
        let reinstall = bring_to_known_state(Strategy::Reinstall, &drifts, &model);
        let verify = bring_to_known_state(Strategy::VerifyRepair, &drifts, &model);
        out.push_str(&format!(
            "{n:>13} | {:>13.0} | {:>17.0} | {}\n",
            reinstall.seconds,
            verify.seconds,
            if verify.known_good { "yes" } else { "NO (missed drift)" },
        ));
    }
    out.push_str(
        "\nReinstall is flat; verification cost grows with drift and any\n\
         core-component drift forces a reinstall anyway — the paper's thesis.\n",
    );
    out
}

/// A cluster-state summary after a full simulated bring-up, for the
/// `reproduce all` footer.
pub fn bringup_summary() -> String {
    let mut cluster =
        rocks_core::Cluster::install_frontend("00:30:c1:d8:ac:80", 7).expect("frontend installs");
    let macs: Vec<String> = (0..8).map(|i| format!("00:50:8b:e0:44:{i:02x}")).collect();
    cluster.integrate_rack("Compute", 0, &macs).expect("rack integrates");
    let inconsistent = cluster.inconsistent_nodes().expect("check runs");
    let reports = cluster.reports().expect("reports generate");
    format!(
        "Bring-up check: frontend + 8 compute nodes integrated; \
         {} inconsistent; {} dhcpd host stanzas; {} PBS nodes\n",
        inconsistent.len(),
        reports.dhcpd_conf.matches("host ").count(),
        reports.pbs_nodes.lines().count(),
    )
}

/// Refuse to record an unclean run: panic with the field and its value
/// before the snapshot is written, so `reproduce <experiment>` exits
/// non-zero and the committed `BENCH_*.json` stays as it was.
fn require_clean<T: PartialEq + std::fmt::Debug>(experiment: &str, field: &str, got: T, want: T) {
    assert!(
        got == want,
        "reproduce {experiment}: {field} is {got:?}, must be {want:?}; snapshot not written"
    );
}

/// Write a `BENCH_*.json` snapshot into the working directory and say
/// whether that worked.
fn write_snapshot(file: &str, json: &str) -> String {
    match std::fs::write(file, json) {
        Ok(()) => format!("snapshot written to {file}"),
        Err(e) => format!("snapshot NOT written: {e}"),
    }
}

// ---------------------------------------------------------------------
// Chaos harness sweep (`reproduce chaos`, BENCH_chaos.json)
// ---------------------------------------------------------------------

/// Everything one chaos sweep measured, renderable as `BENCH_chaos.json`.
#[derive(Debug, Clone)]
pub(crate) struct ChaosSnapshot {
    /// First seed of the contiguous sweep.
    pub first_seed: u64,
    /// Seeded scenarios executed.
    pub seeds_run: usize,
    /// Invariant violations across the whole sweep (must be 0).
    pub invariant_violations: usize,
    /// Faults scheduled across all plans.
    pub total_faults: usize,
    /// Nodes that completed their reinstall.
    pub completed_nodes: usize,
    /// Nodes left hung by schedules that never power-cycle them.
    pub unrecoverable_nodes: usize,
    /// Fetch attempts across all runs (baseline + protocol retries).
    pub total_attempts: u64,
    /// Install-server failovers across all runs.
    pub total_failovers: u64,
    /// Plans replayed on the reference engine for the agreement check.
    pub diff_checked: usize,
}

impl ChaosSnapshot {
    /// Render as the `BENCH_chaos.json` document.
    pub(crate) fn to_json(&self) -> String {
        format!(
            "{{\n  \"experiment\": \"chaos\",\n  \"first_seed\": {},\n  \"seeds_run\": {},\n  \"invariant_violations\": {},\n  \"total_faults\": {},\n  \"completed_nodes\": {},\n  \"unrecoverable_nodes\": {},\n  \"total_attempts\": {},\n  \"total_failovers\": {},\n  \"diff_checked\": {}\n}}\n",
            self.first_seed,
            self.seeds_run,
            self.invariant_violations,
            self.total_faults,
            self.completed_nodes,
            self.unrecoverable_nodes,
            self.total_attempts,
            self.total_failovers,
            self.diff_checked,
        )
    }
}

/// Run the seeded chaos sweep: `count` scenarios starting at
/// `first_seed`, each a randomized topology under a randomized fault
/// schedule, checked against the standard invariant set (byte
/// conservation, eventual completion, monotone phases) with every
/// seventh small plan replayed on the reference engine.
pub(crate) fn measure_chaos(first_seed: u64, count: usize) -> ChaosSnapshot {
    let report = rocks_netsim::run_chaos(first_seed, count);
    ChaosSnapshot {
        first_seed,
        seeds_run: report.seeds_run,
        invariant_violations: report.violations.len(),
        total_faults: report.total_faults,
        completed_nodes: report.completed_nodes,
        unrecoverable_nodes: report.unrecoverable_nodes,
        total_attempts: report.total_attempts,
        total_failovers: report.total_failovers,
        diff_checked: report.diff_checked,
    }
}

/// Chaos experiment for `reproduce`: sweeps 200 seeds under `--quick`
/// (1000 otherwise), writes `BENCH_chaos.json`, and reports the tally.
/// A non-zero violation count panics instead — it means some seed broke
/// a global correctness property and can be replayed exactly.
pub fn chaos(quick: bool) -> String {
    let count = if quick { 200 } else { 1000 };
    let snap = measure_chaos(0, count);
    require_clean("chaos", "invariant_violations", snap.invariant_violations, 0);
    let written = write_snapshot("BENCH_chaos.json", &snap.to_json());
    format!(
        "chaos harness: seeded fault schedules vs the retrying install protocol\n\
         scenarios: {} (seeds {}..{}), {} faults scheduled — all invariants held\n\
         nodes: {} completed, {} unrecoverable by schedule (hung, never cycled)\n\
         protocol: {} fetch attempts, {} failovers across the sweep\n\
         engines: {} plans replayed on the reference scheduler, all agreeing\n\
         {}\n",
        snap.seeds_run,
        snap.first_seed,
        snap.first_seed + snap.seeds_run as u64,
        snap.total_faults,
        snap.completed_nodes,
        snap.unrecoverable_nodes,
        snap.total_attempts,
        snap.total_failovers,
        snap.diff_checked,
        written,
    )
}

// ---------------------------------------------------------------------
// Rolling reinstall under live batch load (`reproduce rollout`,
// BENCH_rollout.json)
// ---------------------------------------------------------------------

/// One measured rollout policy: a capacity cap, its cluster makespan,
/// per-node install cost at that width, and how much batch throughput
/// the cluster retained while the wave rolled through.
#[derive(Debug, Clone)]
pub(crate) struct RolloutRun {
    /// Concurrent-install cap this run used (`n` for the naive mass path).
    pub capacity: usize,
    /// Wall time from first drain to last re-admit, minutes.
    pub makespan_minutes: f64,
    /// Mean install-leg duration per node, minutes.
    pub install_minutes_per_node: f64,
    /// Busy node-seconds delivered during the rollout divided by what the
    /// same workload delivers over the same window with no rollout.
    pub throughput_retention: f64,
    /// Batch jobs that ran to completion while the rollout was in flight.
    pub jobs_completed: usize,
}

impl RolloutRun {
    /// Fraction of batch throughput lost to the rollout.
    pub(crate) fn throughput_loss(&self) -> f64 {
        (1.0 - self.throughput_retention).max(0.0)
    }

    fn to_json(&self) -> String {
        format!(
            "{{ \"capacity\": {}, \"makespan_minutes\": {:.2}, \
             \"install_minutes_per_node\": {:.2}, \"throughput_retention\": {:.4}, \
             \"throughput_loss\": {:.4}, \"jobs_completed\": {} }}",
            self.capacity,
            self.makespan_minutes,
            self.install_minutes_per_node,
            self.throughput_retention,
            self.throughput_loss(),
            self.jobs_completed,
        )
    }
}

/// What one rollout benchmark measured, renderable as `BENCH_rollout.json`.
#[derive(Debug, Clone)]
pub(crate) struct RolloutSnapshot {
    /// Quick (CI) scale or full scale.
    pub quick: bool,
    /// Cluster size.
    pub nodes: usize,
    /// The rolling policy at the paper's ~7-node knee capacity.
    pub rolling: RolloutRun,
    /// The naive mass path: drain everything, reinstall everything at once.
    pub naive: RolloutRun,
    /// Makespan of the knee-capacity rollout when install legs route
    /// through the federated tiered engine instead of the flat one.
    pub tiered_makespan_minutes: f64,
    /// The capacity sweep (1/4/7/16) showing Table I's contention knee.
    pub capacity_sweep: Vec<RolloutRun>,
    /// Largest swept capacity whose per-node install time stays within
    /// 5% of the sweep minimum — the measured knee.
    pub knee_capacity: usize,
    /// Seeds in the invariant sweep folded into this run.
    pub invariant_seeds: usize,
    /// Violations across that sweep (must be 0).
    pub invariant_violations: usize,
}

impl RolloutSnapshot {
    /// How much better the rolling policy retains batch throughput than
    /// the naive mass reinstall. The release gate holds this at >= 1.5.
    pub(crate) fn retention_ratio(&self) -> f64 {
        self.rolling.throughput_retention / self.naive.throughput_retention.max(1e-9)
    }

    /// Render as the `BENCH_rollout.json` document.
    pub(crate) fn to_json(&self) -> String {
        let sweep = self
            .capacity_sweep
            .iter()
            .map(|r| format!("    {}", r.to_json()))
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            "{{\n  \"experiment\": \"rollout\",\n  \"quick\": {},\n  \"nodes\": {},\n  \
             \"rolling\": {},\n  \"naive\": {},\n  \"retention_ratio\": {:.3},\n  \
             \"tiered_makespan_minutes\": {:.2},\n  \"capacity_sweep\": [\n{}\n  ],\n  \
             \"knee_capacity\": {},\n  \"invariant_seeds\": {},\n  \
             \"invariant_violations\": {}\n}}\n",
            self.quick,
            self.nodes,
            self.rolling.to_json(),
            self.naive.to_json(),
            self.retention_ratio(),
            self.tiered_makespan_minutes,
            sweep,
            self.knee_capacity,
            self.invariant_seeds,
            self.invariant_violations,
        )
    }
}

/// The synthetic production workload: enough initial 4-node jobs to start
/// the cluster busy, then a steady arrival stream sized to ~50% demand so
/// the queue stays bounded over even the slowest (capacity-1) rollout.
fn rollout_workload(n: usize, horizon: f64) -> (Vec<(usize, f64)>, Vec<JobArrival>) {
    let initial: Vec<(usize, f64)> =
        (0..n / 8).map(|i| (4, 1200.0 + (i % 5) as f64 * 180.0)).collect();
    // 4-node, 1500 s jobs every `spacing` seconds => 6000/spacing node-s/s.
    let spacing = 12_000.0 / n as f64;
    let mut arrivals = Vec::new();
    let mut i = 0usize;
    loop {
        let at = 45.0 + i as f64 * spacing;
        if at >= horizon {
            break;
        }
        arrivals.push(JobArrival { at, name: format!("batch-{i}"), nodes: 4, walltime_s: 1500.0 });
        i += 1;
    }
    (initial, arrivals)
}

fn rollout_server(n: usize, initial: &[(usize, f64)]) -> PbsServer {
    let mut server = PbsServer::new();
    for i in 0..n {
        server.add_node(&format!("compute-0-{i}"));
    }
    for (i, (nodes, walltime_s)) in initial.iter().enumerate() {
        let _ = server.qsub(&format!("initial-{i}"), *nodes, *walltime_s);
    }
    schedule(&mut server);
    server
}

/// Busy node-seconds the same workload delivers over `[0, t_end]` on an
/// undisturbed cluster — the denominator of throughput retention.
fn baseline_busy_node_seconds(
    n: usize,
    initial: &[(usize, f64)],
    arrivals: &[JobArrival],
    t_end: f64,
) -> f64 {
    let mut server = rollout_server(n, initial);
    let mut busy = 0.0;
    let mut next_arrival = 0usize;
    loop {
        let now = server.now();
        if now >= t_end - 1e-9 {
            break;
        }
        if let Some(a) = arrivals.get(next_arrival) {
            if a.at <= now + 1e-9 {
                let _ = server.qsub(&a.name, a.nodes, a.walltime_s);
                next_arrival += 1;
                schedule(&mut server);
                continue;
            }
        }
        let mut t_next = t_end;
        if let Some(a) = arrivals.get(next_arrival) {
            t_next = t_next.min(a.at);
        }
        if let Some(tc) = server.next_completion() {
            if tc > now + 1e-9 {
                t_next = t_next.min(tc);
            }
        }
        let width = server.nodes_in_state(NodeState::Busy).len() as f64;
        server.advance_to(t_next);
        busy += width * (t_next - now);
        schedule(&mut server);
    }
    busy
}

/// Run one rollout policy against the shared workload and score it
/// against the undisturbed baseline over the same window.
fn measure_rollout_run(
    n: usize,
    cfg: &RolloutConfig,
    backend: &mut NetsimInstallBackend,
    initial: &[(usize, f64)],
    arrivals: &[JobArrival],
) -> RolloutRun {
    let mut server = rollout_server(n, initial);
    let outcome = run_rollout(
        &mut server,
        backend,
        cfg,
        arrivals,
        &[],
        &mut standard_rollout_invariants(1e9),
        &rocks_trace::Tracer::disabled(),
    )
    .expect("benchmark rollout completes");
    assert!(outcome.violations.is_empty(), "{:#?}", outcome.violations);
    let report = outcome.report;
    let baseline = baseline_busy_node_seconds(n, initial, arrivals, report.makespan_seconds);
    RolloutRun {
        capacity: cfg.capacity,
        makespan_minutes: report.makespan_seconds / 60.0,
        install_minutes_per_node: report.mean_install_seconds() / 60.0,
        throughput_retention: (report.busy_node_seconds / baseline.max(1e-9)).min(1.0),
        jobs_completed: report.jobs_completed_during as usize,
    }
}

/// Measure the rolling-vs-naive comparison, the 1/4/7/16 capacity sweep,
/// the tiered-engine variant, and the invariant sweep at one scale.
pub(crate) fn measure_rollout(quick: bool) -> RolloutSnapshot {
    let n = if quick || cfg!(debug_assertions) { 32 } else { 128 };
    let horizon = n as f64 * 700.0 + 3600.0;
    let (initial, arrivals) = rollout_workload(n, horizon);

    let mut backend = NetsimInstallBackend::new(SimConfig::paper_testbed(1).bundled(12));
    let sweep_caps = [1usize, 4, 7, 16];
    let capacity_sweep: Vec<RolloutRun> = sweep_caps
        .iter()
        .map(|&cap| {
            measure_rollout_run(
                n,
                &RolloutConfig::with_capacity(cap.min(n)),
                &mut backend,
                &initial,
                &arrivals,
            )
        })
        .collect();
    let rolling = capacity_sweep
        .iter()
        .find(|r| r.capacity == 7)
        .expect("sweep includes the knee capacity")
        .clone();
    let naive = measure_rollout_run(n, &RolloutConfig::mass(n), &mut backend, &initial, &arrivals);

    let min_install =
        capacity_sweep.iter().map(|r| r.install_minutes_per_node).fold(f64::INFINITY, f64::min);
    let knee_capacity = capacity_sweep
        .iter()
        .filter(|r| r.install_minutes_per_node <= min_install * 1.05)
        .map(|r| r.capacity)
        .max()
        .unwrap_or(1);

    let mut tiered = NetsimInstallBackend::tiered(
        SimConfig::paper_testbed(1).bundled(12),
        TierConfig::standard(),
    );
    let tiered_run = measure_rollout_run(
        n,
        &RolloutConfig::with_capacity(7.min(n)),
        &mut tiered,
        &initial,
        &arrivals,
    );

    let invariant_seeds = if quick { 500 } else { 1000 };
    let violations = run_rollout_sweep(0..invariant_seeds as u64);

    RolloutSnapshot {
        quick,
        nodes: n,
        rolling,
        naive,
        tiered_makespan_minutes: tiered_run.makespan_minutes,
        capacity_sweep,
        knee_capacity,
        invariant_seeds,
        invariant_violations: violations.len(),
    }
}

/// The rolling-reinstall benchmark: drain/reinstall/re-admit a live
/// cluster at the Table I knee capacity vs the naive mass path, writing
/// `BENCH_rollout.json`.
pub fn rollout(quick: bool) -> String {
    let snap = measure_rollout(quick);
    require_clean("rollout", "invariant_violations", snap.invariant_violations, 0);
    let written = write_snapshot("BENCH_rollout.json", &snap.to_json());
    let sweep = snap
        .capacity_sweep
        .iter()
        .map(|r| {
            format!(
                "  cap {:>3}: {:>6.1} min makespan, {:>4.1} min/node install, {:>5.1}% retained",
                r.capacity,
                r.makespan_minutes,
                r.install_minutes_per_node,
                r.throughput_retention * 100.0,
            )
        })
        .collect::<Vec<_>>()
        .join("\n");
    format!(
        "rolling reinstall under live batch load ({} nodes)\n\
         rolling (cap 7): {:.1} min makespan, {:.1}% throughput retained, {} jobs finished\n\
         naive (mass):    {:.1} min makespan, {:.1}% throughput retained, {} jobs finished\n\
         retention ratio rolling/naive: {:.2}x (release gate: >= 1.5x)\n\
         tiered engine (cap 7): {:.1} min makespan\n\
         capacity sweep (knee at {}):\n{}\n\
         invariant sweep: {} seeds — all invariants held\n\
         {}\n",
        snap.nodes,
        snap.rolling.makespan_minutes,
        snap.rolling.throughput_retention * 100.0,
        snap.rolling.jobs_completed,
        snap.naive.makespan_minutes,
        snap.naive.throughput_retention * 100.0,
        snap.naive.jobs_completed,
        snap.retention_ratio(),
        snap.tiered_makespan_minutes,
        snap.knee_capacity,
        sweep,
        snap.invariant_seeds,
        written,
    )
}

// ---------------------------------------------------------------------
// High-throughput kickstart serving (`reproduce serve`, BENCH_serve.json)
// ---------------------------------------------------------------------

/// The p99 ceiling the serving SLO gate enforces at saturation, µs of
/// virtual time.
pub(crate) const SERVE_SLO_P99_US: u64 = 1_000;

/// Minimum completed-request throughput the 8-shard frontend must
/// sustain at saturation, requests per simulated second.
pub(crate) const SERVE_SLO_MIN_RPS: f64 = 100_000.0;

/// One frontend configuration measured at saturation: offered load far
/// past capacity, a tight admission queue, and the completed-request
/// throughput plus tail latency that survive it.
#[derive(Debug, Clone)]
pub(crate) struct ServeRun {
    /// Worker shards.
    pub shards: usize,
    /// Workers per shard.
    pub workers_per_shard: usize,
    /// Completed requests per simulated second.
    pub rps: f64,
    /// Median completed-request latency, virtual µs.
    pub p50_us: u64,
    /// 99th-percentile completed-request latency, virtual µs.
    pub p99_us: u64,
    /// Fraction of arrivals rejected at admission.
    pub shed_rate: f64,
    /// Deepest queue observed (bounded by the high-water mark).
    pub queue_peak: u64,
    /// Requests served to completion.
    pub completed: u64,
}

impl ServeRun {
    fn from_report(cfg: &ServeConfig, r: &ServeReport) -> ServeRun {
        ServeRun {
            shards: cfg.shards,
            workers_per_shard: cfg.workers_per_shard,
            rps: r.rps(),
            p50_us: r.latency.p50_us,
            p99_us: r.latency.p99_us,
            shed_rate: r.shed_rate(),
            queue_peak: r.queue_peak,
            completed: r.completed,
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{ \"shards\": {}, \"workers_per_shard\": {}, \"rps\": {:.0}, \
             \"p50_us\": {}, \"p99_us\": {}, \"shed_rate\": {:.4}, \
             \"queue_peak\": {}, \"completed\": {} }}",
            self.shards,
            self.workers_per_shard,
            self.rps,
            self.p50_us,
            self.p99_us,
            self.shed_rate,
            self.queue_peak,
            self.completed,
        )
    }
}

/// What one serving benchmark measured, renderable as `BENCH_serve.json`.
#[derive(Debug, Clone)]
pub(crate) struct ServeSnapshot {
    /// Quick (CI) scale or full scale.
    pub quick: bool,
    /// Saturation throughput at 1/2/4/8 shards, 4 workers each.
    pub shard_sweep: Vec<ServeRun>,
    /// The 10×-burst scenario at the 8-shard configuration.
    pub burst: ServeRun,
    /// The same workload without the burst window.
    pub steady: ServeRun,
    /// Install-class p99 under install-heavy overload, virtual µs.
    pub install_p99_us: u64,
    /// Report-class p99 under the same overload — bounded by aging.
    pub report_p99_us: u64,
    /// Longest install run that ever passed a waiting report.
    pub max_consecutive_installs: u64,
    /// The aging window that bound is checked against.
    pub report_every: u64,
    /// Backend misses with a mid-run dist-rebuild invalidation.
    pub storm_misses: u64,
    /// Backend misses for the calm twin (initial warmup only).
    pub calm_misses: u64,
    /// p99 with the storm re-warm stalls, virtual µs.
    pub storm_p99_us: u64,
    /// Calm-twin p99, virtual µs.
    pub calm_p99_us: u64,
    /// End-to-end throughput against the real generation service + SQL
    /// reports (virtual time; schedule proven identical to the model).
    pub real_rps: f64,
    /// Seeds in the folded-in invariant sweep.
    pub sweep_seeds: usize,
    /// Violations across that sweep (must be 0).
    pub sweep_violations: usize,
}

impl ServeSnapshot {
    /// The headline 8-shard saturation run.
    pub(crate) fn headline(&self) -> &ServeRun {
        self.shard_sweep.last().expect("sweep is non-empty")
    }

    /// Render as the `BENCH_serve.json` document.
    pub(crate) fn to_json(&self) -> String {
        let sweep = self
            .shard_sweep
            .iter()
            .map(|r| format!("    {}", r.to_json()))
            .collect::<Vec<_>>()
            .join(",\n");
        let h = self.headline();
        format!(
            "{{\n  \"experiment\": \"serve\",\n  \"quick\": {},\n  \"rps\": {:.0},\n  \
             \"p99_us\": {},\n  \"shed_rate\": {:.4},\n  \"queue_peak\": {},\n  \
             \"slo_p99_us\": {},\n  \"slo_min_rps\": {:.0},\n  \
             \"shard_sweep\": [\n{}\n  ],\n  \
             \"burst\": {},\n  \"steady\": {},\n  \
             \"priority\": {{ \"install_p99_us\": {}, \"report_p99_us\": {}, \
             \"max_consecutive_installs\": {}, \"report_every\": {} }},\n  \
             \"storm\": {{ \"misses\": {}, \"calm_misses\": {}, \"p99_us\": {}, \
             \"calm_p99_us\": {} }},\n  \
             \"real_backend_rps\": {:.0},\n  \
             \"sweep_seeds\": {},\n  \"violations\": {}\n}}\n",
            self.quick,
            h.rps,
            h.p99_us,
            h.shed_rate,
            h.queue_peak,
            SERVE_SLO_P99_US,
            SERVE_SLO_MIN_RPS,
            sweep,
            self.burst.to_json(),
            self.steady.to_json(),
            self.install_p99_us,
            self.report_p99_us,
            self.max_consecutive_installs,
            self.report_every,
            self.storm_misses,
            self.calm_misses,
            self.storm_p99_us,
            self.calm_p99_us,
            self.real_rps,
            self.sweep_seeds,
            self.sweep_violations,
        )
    }
}

/// The saturation configuration: a tight admission queue so tail latency
/// stays queue-bounded while offered load runs far past capacity.
fn serve_saturation_cfg(shards: usize) -> ServeConfig {
    ServeConfig {
        shards,
        workers_per_shard: 4,
        queue_cap: 64,
        high_water: 48,
        retry_after_us: 2_000,
        ..ServeConfig::default()
    }
}

/// Offered load for the saturation sweep: open-loop at 600k rps — past
/// even the 32-worker configuration's capacity — with no retries, so the
/// completed rate *is* the measured capacity.
fn serve_saturation_workload(horizon_us: u64) -> Workload {
    Workload {
        seed: 42,
        arrivals: Arrivals::Open { rate_rps: 600_000.0, retry_shed: false },
        horizon_us,
        report_permille: 200,
        faults: Vec::new(),
    }
}

fn serve_measure(cfg: &ServeConfig, wl: &Workload, backend: &mut ModelBackend) -> ServeReport {
    let (report, _) = run_serve(cfg, wl, backend, &rocks_trace::Tracer::disabled());
    assert!(report.violations.is_empty(), "serve invariants violated: {:#?}", report.violations);
    report
}

/// A frontend-plus-database cluster for the end-to-end sections: one
/// frontend and `computes` compute nodes, integrated the insert-ethers
/// way (no distribution build — the serving path never reads it).
fn serve_cluster_db(computes: usize) -> ClusterDb {
    use rocks_db::insert_ethers::{register_frontend, DhcpRequest, InsertEthers};
    let mut db = ClusterDb::new();
    register_frontend(&mut db, "00:30:c1:d8:ac:80", "frontend-0").unwrap();
    let mut session = InsertEthers::start(&mut db, "Compute", 0).unwrap();
    for i in 0..computes {
        session
            .observe(&DhcpRequest { mac: format!("00:50:8b:e0:{:02x}:{:02x}", i / 256, i % 256) })
            .unwrap();
    }
    db
}

fn serve_generation_service() -> rocks_kickstart::GenerationService {
    rocks_kickstart::GenerationService::new(rocks_kickstart::KickstartGenerator::new(
        profiles::default_profiles(),
        "10.1.1.1",
        "install/rocks-dist",
    ))
}

/// Measure the shard sweep, the burst/priority/storm scenarios, the
/// end-to-end real-backend run, and the folded-in invariant sweep.
pub(crate) fn measure_serve(quick: bool) -> ServeSnapshot {
    let horizon = if quick { 50_000 } else { 500_000 };

    // Saturation capacity at 1/2/4/8 shards, 4 workers each.
    let wl = serve_saturation_workload(horizon);
    let shard_sweep: Vec<ServeRun> = [1usize, 2, 4, 8]
        .iter()
        .map(|&shards| {
            let cfg = serve_saturation_cfg(shards);
            let report = serve_measure(&cfg, &wl, &mut ModelBackend::new(64, 4, 6));
            ServeRun::from_report(&cfg, &report)
        })
        .collect();

    // A 10× burst against a modest 2×2 configuration vs its calm twin.
    let burst_cfg = ServeConfig {
        shards: 2,
        workers_per_shard: 2,
        queue_cap: 64,
        high_water: 48,
        retry_after_us: 1_500,
        ..ServeConfig::default()
    };
    let burst_wl = Workload {
        seed: 7,
        arrivals: Arrivals::Open { rate_rps: 40_000.0, retry_shed: true },
        horizon_us: if quick { 40_000 } else { 200_000 },
        report_permille: 200,
        faults: vec![ServeFault::Burst { at_us: 10_000, dur_us: 10_000, factor: 10.0 }],
    };
    let burst_report = serve_measure(&burst_cfg, &burst_wl, &mut ModelBackend::new(64, 2, 6));
    let steady_report = serve_measure(
        &burst_cfg,
        &Workload { faults: Vec::new(), ..burst_wl },
        &mut ModelBackend::new(64, 2, 6),
    );

    // Priority under install-heavy overload: reports ride the aging
    // bound instead of starving.
    let prio_cfg = ServeConfig { shards: 2, workers_per_shard: 2, ..ServeConfig::default() };
    let prio_wl = Workload {
        seed: 11,
        arrivals: Arrivals::Open { rate_rps: 150_000.0, retry_shed: false },
        horizon_us: if quick { 30_000 } else { 120_000 },
        report_permille: 100,
        faults: Vec::new(),
    };
    let prio = serve_measure(&prio_cfg, &prio_wl, &mut ModelBackend::new(64, 2, 6));

    // Cache-invalidation storm vs calm twin (closed loop).
    let storm_cfg = ServeConfig { shards: 2, workers_per_shard: 4, ..ServeConfig::default() };
    let storm_wl = Workload {
        seed: 13,
        arrivals: Arrivals::Closed { clients: 32, think_us: 200 },
        horizon_us: if quick { 40_000 } else { 160_000 },
        report_permille: 300,
        faults: vec![ServeFault::CacheStorm { at_us: 20_000 }],
    };
    let storm = serve_measure(&storm_cfg, &storm_wl, &mut ModelBackend::new(48, 4, 8));
    let calm = serve_measure(
        &storm_cfg,
        &Workload { faults: Vec::new(), ..storm_wl },
        &mut ModelBackend::new(48, 4, 8),
    );

    // End to end: the real generation service and SQL report path behind
    // the same frontend, with the timing model shadowing it.
    let real_cfg = serve_saturation_cfg(4);
    let real_wl = Workload {
        seed: 17,
        arrivals: Arrivals::Open { rate_rps: 80_000.0, retry_shed: false },
        horizon_us: if quick { 20_000 } else { 60_000 },
        report_permille: 250,
        faults: Vec::new(),
    };
    let db = serve_cluster_db(64);
    let svc = serve_generation_service();
    let mut real_backend = RealBackend::new(&svc, &db, rocks_rpm::Arch::I686).unwrap();
    let mut shadow =
        ModelBackend::with_roots(real_backend.target_roots(), real_backend.n_queries());
    let (real_report, _) =
        run_serve(&real_cfg, &real_wl, &mut real_backend, &rocks_trace::Tracer::disabled());
    assert!(real_report.violations.is_empty(), "{:#?}", real_report.violations);
    let shadow_report = serve_measure(&real_cfg, &real_wl, &mut shadow);
    // The fingerprint folds response bodies, which the model does not
    // render; every timing-derived field must agree exactly.
    let mut real_cmp = real_report.clone();
    let mut shadow_cmp = shadow_report;
    real_cmp.fingerprint = 0;
    shadow_cmp.fingerprint = 0;
    assert_eq!(real_cmp, shadow_cmp, "timing model diverged from the real backend");

    let sweep_seeds = if quick { 200 } else { 500 };
    let sweep = run_serve_sweep(0, sweep_seeds);

    ServeSnapshot {
        quick,
        shard_sweep,
        burst: ServeRun::from_report(&burst_cfg, &burst_report),
        steady: ServeRun::from_report(&burst_cfg, &steady_report),
        install_p99_us: prio.install_latency.p99_us,
        report_p99_us: prio.report_latency.p99_us,
        max_consecutive_installs: prio.max_consecutive_installs,
        report_every: prio_cfg.report_every,
        storm_misses: storm.backend_misses,
        calm_misses: calm.backend_misses,
        storm_p99_us: storm.latency.p99_us,
        calm_p99_us: calm.latency.p99_us,
        real_rps: real_report.rps(),
        sweep_seeds: sweep_seeds as usize,
        sweep_violations: sweep.violations.len(),
    }
}

/// The serving benchmark: shard-sweep saturation throughput, burst and
/// storm chaos scenarios, priority behaviour, the real-backend
/// end-to-end run, and the invariant sweep, writing `BENCH_serve.json`.
pub fn serve(quick: bool) -> String {
    let snap = measure_serve(quick);
    require_clean("serve", "violations", snap.sweep_violations, 0);
    let written = write_snapshot("BENCH_serve.json", &snap.to_json());
    let sweep = snap
        .shard_sweep
        .iter()
        .map(|r| {
            format!(
                "  {}x{} workers: {:>8.0} rps, p50 {:>4} µs, p99 {:>5} µs, \
                 {:>5.1}% shed, queue peak {}",
                r.shards,
                r.workers_per_shard,
                r.rps,
                r.p50_us,
                r.p99_us,
                r.shed_rate * 100.0,
                r.queue_peak,
            )
        })
        .collect::<Vec<_>>()
        .join("\n");
    let h = snap.headline();
    format!(
        "kickstart serving frontend at saturation\n\
         headline (8 shards): {:.0} rps, p99 {} µs (SLO: >= {:.0} rps, p99 <= {} µs)\n\
         shard sweep:\n{}\n\
         burst 10x: {:.0} rps, {:.1}% shed (steady: {:.0} rps, {:.1}% shed)\n\
         priority: install p99 {} µs, report p99 {} µs, \
         longest install run {} (aging window {})\n\
         cache storm: {} misses vs {} calm, p99 {} µs vs {} µs\n\
         real backend end-to-end: {:.0} rps (schedule matches the timing model)\n\
         invariant sweep: {} seeds — all invariants held\n\
         {}\n",
        h.rps,
        h.p99_us,
        SERVE_SLO_MIN_RPS,
        SERVE_SLO_P99_US,
        sweep,
        snap.burst.rps,
        snap.burst.shed_rate * 100.0,
        snap.steady.rps,
        snap.steady.shed_rate * 100.0,
        snap.install_p99_us,
        snap.report_p99_us,
        snap.max_consecutive_installs,
        snap.report_every,
        snap.storm_misses,
        snap.calm_misses,
        snap.storm_p99_us,
        snap.calm_p99_us,
        snap.real_rps,
        snap.sweep_seeds,
        written,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape_matches_paper() {
        let measured = table1_data(1);
        // Flat region: 1..=8 nodes within 15% of each other.
        let t1 = measured[0].1;
        for (n, minutes) in &measured[..4] {
            assert!((minutes / t1 - 1.0).abs() < 0.15, "{n} nodes: {minutes} vs {t1}");
        }
        // Monotone-ish growth into the knee, and 32 nodes degrade
        // gracefully (well under 4x despite 32x the data).
        assert!(measured[5].1 > measured[3].1);
        assert!(measured[5].1 < t1 * 2.5);
    }

    #[test]
    fn table2_contains_paper_rows() {
        let text = table2();
        for needle in [
            "00:30:c1:d8:ac:80",
            "frontend-0",
            "network-0-0",
            "nfs-0-0",
            "10.255.255.245",
            "Web Server in Cabinet 1",
        ] {
            assert!(text.contains(needle), "missing {needle}\n{text}");
        }
    }

    #[test]
    fn table3_contains_default_memberships() {
        let text = table3();
        for needle in [
            "Frontend",
            "Compute",
            "External",
            "Ethernet Switches",
            "Myrinet Switches",
            "Power Units",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn figures_render_nonempty() {
        for (name, text) in [
            ("fig1", fig1()),
            ("fig2", fig2()),
            ("fig3", fig3()),
            ("fig4", fig4()),
            ("fig5", fig5()),
            ("fig6", fig6()),
        ] {
            assert!(text.len() > 100, "{name} too short");
        }
    }

    #[test]
    fn fig7_snapshot_shows_38_complete() {
        let text = fig7();
        assert!(text.contains("Completed:       38"), "{text}");
        assert!(text.contains("Total    :      162"));
    }

    #[test]
    fn micro_benchmark_in_paper_band() {
        let text = micro_benchmark();
        let measured: f64 = text
            .lines()
            .find(|l| l.starts_with("measured"))
            .and_then(|l| l.split_whitespace().nth(1).map(|s| s.parse().unwrap()))
            .unwrap();
        assert!((7.0..8.5).contains(&measured), "{measured}");
    }

    #[test]
    fn ablation_reports_crossover() {
        let text = ablation();
        assert!(text.contains("drifted items"));
        assert!(text.contains("NO (missed drift)") || text.contains("yes"));
    }

    #[test]
    fn reinstall_range_matches_5_to_10_minutes() {
        let text = reinstall_range();
        let minutes: Vec<f64> = text
            .lines()
            .filter(|l| l.contains('|'))
            .filter_map(|l| l.rsplit('|').next()?.trim().parse().ok())
            .collect();
        assert_eq!(minutes.len(), 3, "{text}");
        let max = minutes.iter().cloned().fold(f64::MIN, f64::max);
        let min = minutes.iter().cloned().fold(f64::MAX, f64::min);
        assert!((9.0..11.5).contains(&max), "upper bound {max}");
        assert!((4.0..7.0).contains(&min), "lower bound {min}");
    }

    #[test]
    fn cabinet_topology_orders_correctly() {
        let text = cabinet_topology();
        let minutes: Vec<f64> = text
            .lines()
            .filter(|l| l.contains(" | "))
            .filter_map(|l| l.rsplit('|').next()?.trim().parse().ok())
            .collect();
        assert_eq!(minutes.len(), 4, "{text}");
        // flat fastest; one giant cabinet slowest; more cabinets monotone.
        assert!(minutes[0] <= minutes[3]);
        assert!(minutes[1] > minutes[2]);
        assert!(minutes[2] > minutes[3]);
    }

    #[test]
    fn utilization_means_increase_with_node_count() {
        let text = utilization_timeline();
        let means: Vec<f64> = text
            .lines()
            .filter(|l| l.contains("mean"))
            .filter_map(|l| l.rsplit("mean ").next()?.trim_end_matches("%").parse().ok())
            .collect();
        assert_eq!(means.len(), 3, "{text}");
        assert!(means[0] < means[1] && means[1] < means[2], "{means:?}");
    }

    #[test]
    fn update_tracking_has_both_policies() {
        let text = update_tracking();
        assert!(text.contains("rocks-dist auto-track"));
        assert!(text.contains("manual quarterly"));
        assert!(text.contains("124"));
    }

    #[test]
    fn bringup_summary_reports_consistency() {
        let text = bringup_summary();
        assert!(text.contains("0 inconsistent"), "{text}");
        assert!(text.contains("8 PBS nodes"), "{text}");
    }

    #[test]
    #[should_panic(expected = "reproduce chaos: invariant_violations is 3, must be 0")]
    fn unclean_run_panics_with_field_and_value_before_the_snapshot() {
        require_clean("chaos", "invariant_violations", 3, 0);
    }

    #[test]
    fn chaos_snapshot_json_has_the_contract_keys() {
        let snap = measure_chaos(0, 12);
        assert_eq!(snap.seeds_run, 12);
        assert_eq!(snap.invariant_violations, 0, "seeds 0..12 must be clean");
        assert!(snap.completed_nodes > 0);
        assert!(snap.total_attempts > 0);
        let json = snap.to_json();
        for key in [
            "\"experiment\": \"chaos\"",
            "\"first_seed\": 0",
            "\"seeds_run\": 12",
            "\"invariant_violations\": 0",
            "\"total_faults\"",
            "\"completed_nodes\"",
            "\"unrecoverable_nodes\"",
            "\"total_attempts\"",
            "\"total_failovers\"",
            "\"diff_checked\"",
        ] {
            assert!(json.contains(key), "missing {key} in\n{json}");
        }
    }

    /// The release gate for the rollout benchmark: a capacity-7 rolling
    /// reinstall must retain at least 1.5x the batch throughput of the
    /// naive drain-everything mass path, the sweep must surface the
    /// Table I knee, and the folded-in invariant sweep must be clean.
    #[test]
    fn rollout_makespan_floor() {
        // Debug builds gate the 32-node quick scale; release CI gates the
        // full 128-node claim. Both are fully deterministic.
        let snap = measure_rollout(cfg!(debug_assertions));
        assert_eq!(snap.invariant_violations, 0, "invariant sweep violated");
        let ratio = snap.retention_ratio();
        assert!(
            ratio >= 1.5,
            "rolling retained only {ratio:.2}x the naive path's throughput \
             (rolling {:.3}, naive {:.3})",
            snap.rolling.throughput_retention,
            snap.naive.throughput_retention,
        );
        // Rolling trades makespan for availability: it must take longer
        // than the mass path but keep the cluster mostly productive.
        assert!(snap.rolling.makespan_minutes > snap.naive.makespan_minutes);
        assert!(snap.rolling.throughput_retention > 0.8, "{snap:#?}");
        // The sweep shows the knee: the widest capacity pays visibly more
        // per node than the knee does, and the knee sits in [4, 16).
        assert!((4..16).contains(&snap.knee_capacity), "knee {}", snap.knee_capacity);
        let json = snap.to_json();
        for key in [
            "\"experiment\": \"rollout\"",
            "\"nodes\"",
            "\"rolling\"",
            "\"naive\"",
            "\"retention_ratio\"",
            "\"tiered_makespan_minutes\"",
            "\"capacity_sweep\"",
            "\"throughput_retention\"",
            "\"throughput_loss\"",
            "\"knee_capacity\"",
            "\"invariant_violations\": 0",
        ] {
            assert!(json.contains(key), "missing {key} in\n{json}");
        }
    }

    /// The serving SLO gate: at 8 shards the frontend must sustain at
    /// least 100k completed requests per simulated second with p99 under
    /// the 1 ms floor and zero invariant violations. Virtual-time
    /// measurement — debug and release builds agree bit-for-bit, so the
    /// gate runs at every tier.
    #[test]
    fn serve_slo_floor() {
        // 8 shards × 4 workers, offered load far past capacity.
        let cfg = serve_saturation_cfg(8);
        let wl = serve_saturation_workload(50_000);
        let report = serve_measure(&cfg, &wl, &mut ModelBackend::new(64, 4, 6));
        let run = ServeRun::from_report(&cfg, &report);
        assert!(
            run.rps >= SERVE_SLO_MIN_RPS,
            "8-shard frontend sustained only {:.0} rps (floor {:.0})",
            run.rps,
            SERVE_SLO_MIN_RPS,
        );
        assert!(
            run.p99_us <= SERVE_SLO_P99_US,
            "8-shard p99 {} µs breaks the {} µs SLO",
            run.p99_us,
            SERVE_SLO_P99_US,
        );
        let sweep = run_serve_sweep(0, 100);
        assert!(sweep.violations.is_empty(), "invariant sweep: {:?}", sweep.violations);
    }

    /// The quick snapshot carries every key the CI grep gate checks,
    /// throughput scales with the shard count, and the chaos sections
    /// tell their stories (burst sheds, storm forces re-warm misses).
    #[test]
    fn serve_snapshot_json_has_contract_keys() {
        let snap = measure_serve(true);
        assert_eq!(snap.sweep_violations, 0);
        let sweep = &snap.shard_sweep;
        assert_eq!(sweep.len(), 4);
        for pair in sweep.windows(2) {
            assert!(
                pair[1].rps > pair[0].rps * 1.5,
                "{} shards: {:.0} rps vs {} shards: {:.0} rps — scaling collapsed",
                pair[1].shards,
                pair[1].rps,
                pair[0].shards,
                pair[0].rps,
            );
        }
        assert!(snap.burst.shed_rate > snap.steady.shed_rate);
        assert!(snap.storm_misses > snap.calm_misses);
        assert!(snap.max_consecutive_installs <= snap.report_every);
        assert!(snap.real_rps > 0.0);
        let json = snap.to_json();
        for key in [
            "\"experiment\": \"serve\"",
            "\"rps\"",
            "\"p99_us\"",
            "\"shed_rate\"",
            "\"queue_peak\"",
            "\"shard_sweep\"",
            "\"burst\"",
            "\"steady\"",
            "\"priority\"",
            "\"storm\"",
            "\"real_backend_rps\"",
            "\"violations\": 0",
        ] {
            assert!(json.contains(key), "missing {key} in\n{json}");
        }
    }
}
