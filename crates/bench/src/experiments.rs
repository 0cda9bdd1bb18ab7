//! One function per paper table / figure / quantitative claim.

use rocks_db::{ClusterDb, Ipv4, Membership, NodeRecord};
use rocks_kickstart::profiles;
use rocks_netsim::cluster::{
    max_full_speed_concurrency, serial_download_benchmark, table1_sweep, ClusterSim,
};
use rocks_netsim::engine::{Engine, EngineMode, Wakeup};
use rocks_netsim::shard::FederatedSim;
use rocks_netsim::{NetsimInstallBackend, SimConfig, TierConfig};
use rocks_pbs::rollout::run_rollout_sweep;
use rocks_pbs::scheduler::schedule;
use rocks_pbs::{
    run_rollout, standard_rollout_invariants, JobArrival, NodeState, PbsServer, RolloutConfig,
};
use rocks_rpm::{synth, Repository, UpdateStream};
use rocks_serve::{
    run_serve, run_serve_sweep, Arrivals, ModelBackend, RealBackend, ServeBackend, ServeConfig,
    ServeFault, ServeReport, Workload,
};

/// Paper values for Table I: (nodes, minutes).
pub const PAPER_TABLE1: &[(usize, f64)] =
    &[(1, 10.3), (2, 9.8), (4, 10.1), (8, 10.4), (16, 11.1), (32, 13.7)];

/// Table I: total reinstall time vs. concurrent node count.
pub fn table1_data(seed: u64) -> Vec<(usize, f64)> {
    let ns: Vec<usize> = PAPER_TABLE1.iter().map(|(n, _)| *n).collect();
    table1_sweep(&ns, seed)
}

/// Render Table I with the paper's numbers side-by-side.
pub fn table1() -> String {
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
pub fn table2_db() -> ClusterDb {
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
pub fn table2() -> String {
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
pub fn table3() -> String {
    let db = ClusterDb::new();
    let result = db
        .sql_ref()
        .query_ref("select id, name, appliance, compute from memberships order by id")
        .expect("memberships query");
    format!("Table III. The Memberships table\n{}", result.render_ascii())
}

/// Figure 1: the Rocks hardware architecture, rendered from the Table II
/// cluster's database content.
pub fn fig1() -> String {
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
pub fn fig2() -> String {
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
pub fn fig3() -> String {
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
pub fn fig4() -> String {
    let set = profiles::default_profiles();
    let traversal =
        set.graph.traverse("compute", rocks_rpm::Arch::I686).expect("compute is a root");
    format!(
        "Figure 4. Visualization of the XML graph description\n\n{}\n\
         compute-appliance traversal: {}\n",
        rocks_kickstart::dot::to_dot(&set.graph),
        traversal.join(" -> "),
    )
}

/// Figure 5: the rocks-dist build pipeline report.
pub fn fig5() -> String {
    let stock = rocks_dist::Distribution::stock("redhat-7.2", synth::redhat72(1));
    let community = synth::community();
    let local = synth::rocks_local();
    let (_dist, report) = rocks_dist::builder::build(rocks_dist::BuildConfig {
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
pub fn fig6() -> String {
    use rocks_dist::hierarchy::{build_chain, Level};
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
pub fn fig7() -> String {
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
pub fn micro_benchmark() -> String {
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
pub fn gige_scaling() -> String {
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
pub fn replica_scaling() -> String {
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
pub fn reinstall_range() -> String {
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
pub fn cabinet_topology() -> String {
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
pub fn utilization_timeline() -> String {
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
pub fn update_tracking() -> String {
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
pub fn ablation() -> String {
    use rocks_core::consistency::*;
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

/// Node-state sanity helper used by benches.
pub fn assert_all_up(sim: &ClusterSim) {
    assert!(sim.nodes().iter().all(|n| n.state == rocks_netsim::NodeState::Up));
}

/// A synthetic cluster database shaped like the paper's schema, sized
/// for planner benchmarking: `rows` nodes across four memberships (only
/// `Compute` is flagged `compute = 'yes'`, each mapped to an appliance),
/// unique MACs and IPs, and a skewed `arch` column (15/16 `x86_64`,
/// 1/16 `ia64`) so the same column carries both a broad and a selective
/// predicate. Nodes are built programmatically through
/// `Table::insert_row` — SQL parsing at 1M rows would dominate the
/// benchmark's setup time.
pub fn planner_database(rows: usize) -> rocks_sql::Database {
    use rocks_sql::{ColumnType, Table, Value};
    let col = |name: &str, ty: ColumnType| (name.to_string(), ty);
    let mut nodes = Table::new(
        "nodes",
        vec![
            col("id", ColumnType::Int),
            col("mac", ColumnType::Text),
            col("name", ColumnType::Text),
            col("membership", ColumnType::Int),
            col("rack", ColumnType::Int),
            col("rank", ColumnType::Int),
            col("ip", ColumnType::Text),
            col("arch", ColumnType::Text),
        ],
    );
    for i in 0..rows {
        let (a, b, c) = (i >> 16, (i >> 8) & 0xff, i & 0xff);
        nodes
            .insert_row(vec![
                Value::Int(i as i64),
                Value::Text(format!("00:50:8b:{a:02x}:{b:02x}:{c:02x}")),
                Value::Text(format!("node-{i}")),
                Value::Int(((i % 4) + 1) as i64),
                Value::Int((i / 64) as i64),
                Value::Int((i % 64) as i64),
                Value::Text(format!("10.{a}.{b}.{c}")),
                Value::Text(if i % 16 == 0 { "ia64" } else { "x86_64" }.to_string()),
            ])
            .expect("node row");
    }
    let mut db = rocks_sql::Database::new();
    db.add_table(nodes).expect("nodes table");
    db.execute("create table memberships (id int, name text, compute text, appliance int)")
        .expect("memberships table");
    db.execute(
        "insert into memberships values (1, 'Frontend', 'no', 1), (2, 'Compute', 'yes', 2), \
         (3, 'External', 'no', 3), (4, 'Ethernet Switches', 'no', 4)",
    )
    .expect("memberships rows");
    db.execute("create table appliances (id int, name text)").expect("appliances table");
    db.execute(
        "insert into appliances values (1, 'frontend'), (2, 'compute'), (3, 'nas'), \
         (4, 'power')",
    )
    .expect("appliances rows");
    db
}

/// The point-lookup query [`measure_sql_engine`] times: resolves one
/// node by IP, the §6.1 CGI lookup pattern.
pub fn planner_point_query(rows: usize) -> String {
    let i = rows / 2;
    format!("select * from nodes where ip = '10.{}.{}.{}'", i >> 16, (i >> 8) & 0xff, i & 0xff)
}

/// The equi-join query [`measure_sql_engine`] times: the paper's §6.4
/// compute-nodes join.
pub const PLANNER_JOIN_QUERY: &str = "select nodes.name from nodes, memberships where \
     nodes.membership = memberships.id and memberships.compute = 'yes'";

/// Broad predicate on the skewed `arch` column: matches 15/16 of the
/// table, past the scan↔index crossover — the planner must scan.
pub const BROAD_ARCH_QUERY: &str = "select name from nodes where arch = 'x86_64'";

/// Selective predicate on the same column (1/16): an index probe wins.
pub const SELECTIVE_ARCH_QUERY: &str = "select name from nodes where arch = 'ia64'";

/// Low-NDV join with a selective filter on the big side, measured under
/// both forced join algorithms: hash pays per raw index candidate
/// (`rows/4` per membership), merge scans-and-prefilters the node table
/// once.
pub const ALGO_JOIN_QUERY: &str = "select count(*) from memberships, nodes where \
     nodes.membership = memberships.id and nodes.rank < 1";

/// Three-table join written in a deliberately bad syntactic order: the
/// heuristic planner takes FROM order and starts by scanning the 1M-row
/// node table (and cross-joins appliances, which connects to nothing
/// placed yet); the cost-based planner reorders to appliances →
/// memberships → nodes so only `rows/4` index candidates are touched.
pub const THREE_TABLE_QUERY: &str = "select nodes.name from nodes, appliances, memberships \
     where nodes.membership = memberships.id and memberships.appliance = appliances.id \
     and appliances.name = 'compute' and nodes.rank < 8";

/// The matching-row count at which a text-column index probe stops
/// paying off against a filtered scan, from the cost model's closed
/// form: `build/32 + PROBE + m·(CANDIDATE + FILTER_EVAL)` crosses
/// `rows·(SCAN_ROW + FILTER_EVAL)`. Grows linearly with table size —
/// the crossover the sweep demonstrates.
pub fn scan_index_crossover_rows(table_rows: f64) -> f64 {
    use rocks_sql::cost;
    let build = cost::index_build_cost(table_rows, rocks_sql::ColumnType::Text, false);
    ((cost::scan_access_cost(table_rows, 1) - build - cost::PROBE)
        / (cost::CANDIDATE + cost::FILTER_EVAL))
        .max(0.0)
}

/// Timings from one indexed-vs-scan comparison at a single table size.
/// All `_ns` values are per-query nanoseconds (minimum over the
/// measured repetitions).
#[derive(Debug, Clone, Copy)]
pub struct SqlEngineSnapshot {
    /// Node-table cardinality the measurement ran against.
    pub rows: usize,
    /// Point query through the forced full-scan path.
    pub point_scan_ns: f64,
    /// Point query through the planner (hash-index probe, cached plan).
    pub point_indexed_ns: f64,
    /// Point query re-planned per call by the cost-based planner.
    pub point_cost_ns: f64,
    /// Point query re-planned per call by the PR2-era heuristic.
    pub point_heuristic_ns: f64,
    /// Equi-join through the forced full-scan path (nested loops).
    pub join_scan_ns: f64,
    /// Equi-join through the planner (hash join, cached plan).
    pub join_indexed_ns: f64,
    /// Cost-model crossover: matching rows above which a scan beats an
    /// index probe at this table size.
    pub crossover_rows: f64,
    /// Access the planner chose for the broad `arch` predicate
    /// (`"scan"` expected — 15/16 of the table matches).
    pub broad_plan: PlanChoice,
    /// Access chosen for the selective `arch` predicate (`"index"`).
    pub selective_plan: PlanChoice,
    /// Join algorithm the planner chose for [`ALGO_JOIN_QUERY`].
    pub algo_chosen: PlanChoice,
    /// [`ALGO_JOIN_QUERY`] with the join forced to hash.
    pub join_hash_ns: f64,
    /// [`ALGO_JOIN_QUERY`] with the join forced to sort-merge.
    pub join_merge_ns: f64,
    /// [`THREE_TABLE_QUERY`] planned by the syntactic-order heuristic.
    pub three_table_heuristic_ns: f64,
    /// [`THREE_TABLE_QUERY`] planned by the cost-based planner.
    pub three_table_cost_ns: f64,
}

/// A plan-shape label extracted from EXPLAIN output ("scan", "index",
/// "hash", "merge").
pub type PlanChoice = &'static str;

impl SqlEngineSnapshot {
    /// Scan-to-indexed ratio for the point query.
    pub fn point_speedup(&self) -> f64 {
        self.point_scan_ns / self.point_indexed_ns
    }

    /// Scan-to-indexed ratio for the equi-join.
    pub fn join_speedup(&self) -> f64 {
        self.join_scan_ns / self.join_indexed_ns
    }

    /// Heuristic-to-cost-based ratio for the three-table join — the
    /// payoff of join-order enumeration.
    pub fn three_table_speedup(&self) -> f64 {
        self.three_table_heuristic_ns / self.three_table_cost_ns
    }

    /// Render as one JSON object (an element of the `sizes` array in
    /// `BENCH_sql_engine.json`).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n    \"rows\": {},\n    \"point_query\": {{\"scan_ns\": {:.0}, \"indexed_ns\": {:.0}, \"cost_replan_ns\": {:.0}, \"heuristic_replan_ns\": {:.0}, \"speedup\": {:.1}}},\n    \"equi_join\": {{\"scan_ns\": {:.0}, \"indexed_ns\": {:.0}, \"speedup\": {:.1}}},\n    \"crossover\": {{\"scan_vs_index_match_rows\": {:.0}, \"broad_plan\": \"{}\", \"selective_plan\": \"{}\"}},\n    \"join_algo\": {{\"chosen\": \"{}\", \"hash_ns\": {:.0}, \"merge_ns\": {:.0}}},\n    \"three_table_join\": {{\"heuristic_ns\": {:.0}, \"cost_based_ns\": {:.0}, \"speedup\": {:.1}}}\n  }}",
            self.rows,
            self.point_scan_ns,
            self.point_indexed_ns,
            self.point_cost_ns,
            self.point_heuristic_ns,
            self.point_speedup(),
            self.join_scan_ns,
            self.join_indexed_ns,
            self.join_speedup(),
            self.crossover_rows,
            self.broad_plan,
            self.selective_plan,
            self.algo_chosen,
            self.join_hash_ns,
            self.join_merge_ns,
            self.three_table_heuristic_ns,
            self.three_table_cost_ns,
            self.three_table_speedup(),
        )
    }
}

/// The `cost_model` block of `BENCH_sql_engine.json`: the constants the
/// planner priced the sweep with, so a trajectory diff shows *why* a
/// crossover moved.
pub fn cost_model_json() -> String {
    use rocks_sql::cost;
    format!(
        "{{\"scan_row\": {}, \"filter_eval\": {}, \"probe\": {}, \"candidate\": {}, \
         \"hash_build_int\": {}, \"hash_build_text\": {}, \"build_amortize\": {}, \
         \"merge_base\": {}, \"sort_per_elem_level\": {}}}",
        cost::SCAN_ROW,
        cost::FILTER_EVAL,
        cost::PROBE,
        cost::CANDIDATE,
        cost::HASH_BUILD_INT,
        cost::HASH_BUILD_TEXT,
        cost::BUILD_AMORTIZE,
        cost::MERGE_BASE,
        cost::SORT_PER_ELEM_LEVEL,
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

/// Minimum per-call nanoseconds of `f` over `reps` timed batches of
/// `iters` calls each.
fn min_ns_per_call(iters: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = std::time::Instant::now();
        for _ in 0..iters.max(1) {
            f();
        }
        best = best.min(start.elapsed().as_nanos() as f64 / iters.max(1) as f64);
    }
    best
}

/// EXPLAIN a query and return the rendered plan text.
fn plan_text(db: &rocks_sql::Database, sql: &str) -> String {
    let result = db.query_ref(&format!("explain {sql}")).expect("explain");
    result.rows.iter().map(|row| row[0].render()).collect::<Vec<_>>().join("\n")
}

fn access_choice(plan: &str) -> PlanChoice {
    if plan.contains("index(") {
        "index"
    } else {
        "scan"
    }
}

fn join_choice(plan: &str) -> PlanChoice {
    if plan.contains("merge join") {
        "merge"
    } else {
        "hash"
    }
}

/// The PR's tentpole measurement at one table size: point lookup and
/// compute join through forced-scan vs planned paths; the same point
/// lookup re-planned per call by the cost-based planner and the PR2
/// heuristic; the broad/selective `arch` predicates' access choices;
/// the low-NDV join under both forced join algorithms; and the
/// three-table join under heuristic vs cost-based ordering. Every
/// planned path is verified against the scan path before timing.
pub fn measure_sql_engine(rows: usize, reps: usize) -> SqlEngineSnapshot {
    use rocks_sql::{JoinAlgo, PlannerConfig, PlannerMode};
    let db = planner_database(rows);
    let point = planner_point_query(rows);

    let cost_cfg = PlannerConfig::default();
    let heuristic_cfg = PlannerConfig { mode: PlannerMode::Heuristic, force_join: None };
    let hash_cfg = PlannerConfig { mode: PlannerMode::CostBased, force_join: Some(JoinAlgo::Hash) };
    let merge_cfg =
        PlannerConfig { mode: PlannerMode::CostBased, force_join: Some(JoinAlgo::SortMerge) };

    // Correctness first — every path must agree with the forced scan —
    // and this also warms the indexes + plan cache.
    for sql in [
        point.as_str(),
        PLANNER_JOIN_QUERY,
        BROAD_ARCH_QUERY,
        SELECTIVE_ARCH_QUERY,
        ALGO_JOIN_QUERY,
        THREE_TABLE_QUERY,
    ] {
        let scanned = db.query_ref_scan(sql).expect("scan path");
        assert_eq!(db.query_ref(sql).expect("planned path"), scanned, "planned != scan: {sql}");
        for cfg in [&heuristic_cfg, &hash_cfg, &merge_cfg] {
            assert_eq!(
                db.query_ref_config(sql, cfg).expect("configured path"),
                scanned,
                "configured plan != scan: {sql}"
            );
        }
    }

    // Scans are O(rows) per call; keep their batches small so the debug
    // test stays quick. The indexed paths are cheap — batch harder so
    // timer overhead vanishes.
    SqlEngineSnapshot {
        rows,
        point_scan_ns: min_ns_per_call(5, reps, || {
            db.query_ref_scan(&point).expect("scanned point");
        }),
        point_indexed_ns: min_ns_per_call(200, reps, || {
            db.query_ref(&point).expect("planned point");
        }),
        point_cost_ns: min_ns_per_call(100, reps, || {
            db.query_ref_config(&point, &cost_cfg).expect("cost point");
        }),
        point_heuristic_ns: min_ns_per_call(100, reps, || {
            db.query_ref_config(&point, &heuristic_cfg).expect("heuristic point");
        }),
        join_scan_ns: min_ns_per_call(2, reps, || {
            db.query_ref_scan(PLANNER_JOIN_QUERY).expect("scanned join");
        }),
        join_indexed_ns: min_ns_per_call(20, reps, || {
            db.query_ref(PLANNER_JOIN_QUERY).expect("planned join");
        }),
        crossover_rows: scan_index_crossover_rows(rows as f64),
        broad_plan: access_choice(&plan_text(&db, BROAD_ARCH_QUERY)),
        selective_plan: access_choice(&plan_text(&db, SELECTIVE_ARCH_QUERY)),
        algo_chosen: join_choice(&plan_text(&db, ALGO_JOIN_QUERY)),
        join_hash_ns: min_ns_per_call(2, reps, || {
            db.query_ref_config(ALGO_JOIN_QUERY, &hash_cfg).expect("hash join");
        }),
        join_merge_ns: min_ns_per_call(2, reps, || {
            db.query_ref_config(ALGO_JOIN_QUERY, &merge_cfg).expect("merge join");
        }),
        three_table_heuristic_ns: min_ns_per_call(2, reps, || {
            db.query_ref_config(THREE_TABLE_QUERY, &heuristic_cfg).expect("heuristic 3-table");
        }),
        three_table_cost_ns: min_ns_per_call(2, reps, || {
            db.query_ref_config(THREE_TABLE_QUERY, &cost_cfg).expect("cost 3-table");
        }),
    }
}

/// Sweep [`measure_sql_engine`] over increasing table sizes, write
/// `BENCH_sql_engine.json` (cost-model constants + per-size snapshots),
/// and report the table. `quick` shrinks the sweep so debug/CI runs
/// finish in seconds; the full sweep reaches 1M rows and is meant for
/// release builds.
pub fn sql_engine_sweep(quick: bool) -> String {
    let (sizes, reps): (&[usize], usize) =
        if quick { (&[10_000, 50_000], 2) } else { (&[10_000, 100_000, 1_000_000], 3) };
    let snaps: Vec<SqlEngineSnapshot> =
        sizes.iter().map(|&rows| measure_sql_engine(rows, reps)).collect();
    for s in &snaps {
        require_clean("sqlbench", "broad_plan", s.broad_plan, "scan");
        require_clean("sqlbench", "selective_plan", s.selective_plan, "index");
    }

    let json = format!(
        "{{\n  \"experiment\": \"sql_engine\",\n  \"cost_model\": {},\n  \"sizes\": [\n  {}\n  ]\n}}\n",
        cost_model_json(),
        snaps.iter().map(|s| s.to_json()).collect::<Vec<_>>().join(",\n  "),
    );
    let written = write_snapshot("BENCH_sql_engine.json", &json);

    let mut out = String::from("SQL engine: cost-based planner vs scan / heuristic\n");
    for s in &snaps {
        out.push_str(&format!(
            "{} rows: point {:.1}x vs scan | arch plans {}→{} (crossover ≈ {} rows) | \
             algo join {} (hash {:.2}ms, merge {:.2}ms) | 3-table reorder {:.1}x vs heuristic\n",
            s.rows,
            s.point_speedup(),
            s.broad_plan,
            s.selective_plan,
            s.crossover_rows as u64,
            s.algo_chosen,
            s.join_hash_ns / 1e6,
            s.join_merge_ns / 1e6,
            s.three_table_speedup(),
        ));
    }
    out.push_str(&written);
    out.push('\n');
    out
}

/// One row of the large-n reinstall sweep (fast scheduler).
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Topology variant: `"fast-ethernet"`, `"gige"`, or `"replica-4"`.
    pub variant: &'static str,
    /// Concurrent node count.
    pub nodes: usize,
    /// Simulated reinstall time in minutes (Table I's unit).
    pub virtual_minutes: f64,
    /// Host wall-clock milliseconds the simulation took.
    pub wall_ms: f64,
}

/// One row of the federated (sharded multi-tier) scaling sweep.
#[derive(Debug, Clone)]
pub struct FederationRow {
    /// Concurrent node count.
    pub nodes: usize,
    /// Cabinet sub-simulators the run sharded into.
    pub shards: usize,
    /// Worker threads driving the shards.
    pub threads: usize,
    /// Simulated whole-cluster reinstall time in minutes.
    pub virtual_minutes: f64,
    /// Host wall-clock milliseconds.
    pub wall_ms: f64,
    /// Events processed across shard + tier engines.
    pub events: u64,
    /// Events per wall-clock second.
    pub events_per_sec: f64,
    /// Bytes served straight from cabinet proxy caches.
    pub proxy_hit_bytes: u64,
    /// Bytes that waited on (or joined) a cabinet fill.
    pub proxy_miss_bytes: u64,
    /// Bytes delivered campus → cabinet (each package once per cabinet).
    pub cabinet_fill_bytes: f64,
    /// Bytes delivered root → campus (each package once per campus).
    pub root_fill_bytes: f64,
}

/// Measurements from the engine-scaling experiment: event throughput of
/// the heap + class-aggregated scheduler against the reference per-flow
/// scan, a fast-vs-reference wall-clock comparison of one large
/// reinstall, and the large-n sweep itself.
#[derive(Debug, Clone)]
pub struct NetsimScaleSnapshot {
    /// Same-class flow count used for the event-throughput drain.
    pub throughput_flows: usize,
    /// Events/second through the fast scheduler.
    pub fast_events_per_sec: f64,
    /// Events/second through the reference scheduler.
    pub ref_events_per_sec: f64,
    /// Node count of the fast-vs-reference reinstall comparison.
    pub reinstall_nodes: usize,
    /// Wall seconds for the fast scheduler at `reinstall_nodes`.
    pub reinstall_fast_s: f64,
    /// Wall seconds for the reference scheduler at `reinstall_nodes`.
    pub reinstall_ref_s: f64,
    /// Large-n sweep rows (fast scheduler only — the reference path is
    /// intractable at 8192 nodes, which is the point of the PR).
    pub sweep: Vec<SweepRow>,
    /// Federated (sharded multi-tier) sweep rows: 65k nodes in quick
    /// runs, up to ~1M in the release sweep.
    pub tiers: Vec<FederationRow>,
    /// Parallel efficiency of the sharded engine at the smallest
    /// federated point: `t_serial / (threads × t_threaded)`. 1.0 on a
    /// single-core host (the serial path *is* the threaded path).
    pub shard_efficiency: f64,
    /// Worker threads the federated rows ran with
    /// (`min(8, available cores)`).
    pub federation_threads: usize,
    /// Flat (single-engine) fast-scheduler events/second at the smallest
    /// federated node count — the baseline the federation is measured
    /// against.
    pub flat_events_per_sec: f64,
}

impl NetsimScaleSnapshot {
    /// Federated-to-flat events/second ratio at the comparison point.
    pub fn federated_speedup(&self) -> f64 {
        self.tiers.first().map_or(0.0, |row| row.events_per_sec / self.flat_events_per_sec)
    }
}

impl NetsimScaleSnapshot {
    /// Fast-to-reference ratio for the event drain.
    pub fn event_speedup(&self) -> f64 {
        self.fast_events_per_sec / self.ref_events_per_sec
    }

    /// Reference-to-fast wall-clock ratio for the reinstall comparison.
    pub fn reinstall_speedup(&self) -> f64 {
        self.reinstall_ref_s / self.reinstall_fast_s
    }

    /// Render as the `BENCH_netsim.json` trajectory document.
    pub fn to_json(&self) -> String {
        let mut sweep = String::new();
        for (i, row) in self.sweep.iter().enumerate() {
            if i > 0 {
                sweep.push_str(",\n");
            }
            sweep.push_str(&format!(
                "    {{\"variant\": \"{}\", \"nodes\": {}, \"virtual_minutes\": {:.1}, \"wall_ms\": {:.1}}}",
                row.variant, row.nodes, row.virtual_minutes, row.wall_ms,
            ));
        }
        let mut tiers = String::new();
        for (i, row) in self.tiers.iter().enumerate() {
            if i > 0 {
                tiers.push_str(",\n");
            }
            tiers.push_str(&format!(
                "    {{\"nodes\": {}, \"shards\": {}, \"threads\": {}, \"virtual_minutes\": {:.1}, \"wall_ms\": {:.1}, \"events\": {}, \"events_per_sec\": {:.0}, \"proxy_hit_bytes\": {}, \"proxy_miss_bytes\": {}, \"cabinet_fill_bytes\": {:.0}, \"root_fill_bytes\": {:.0}}}",
                row.nodes,
                row.shards,
                row.threads,
                row.virtual_minutes,
                row.wall_ms,
                row.events,
                row.events_per_sec,
                row.proxy_hit_bytes,
                row.proxy_miss_bytes,
                row.cabinet_fill_bytes,
                row.root_fill_bytes,
            ));
        }
        format!(
            "{{\n  \"experiment\": \"netsim_scale\",\n  \"throughput_flows\": {},\n  \"fast_events_per_sec\": {:.0},\n  \"ref_events_per_sec\": {:.0},\n  \"speedup\": {:.1},\n  \"reinstall\": {{\"nodes\": {}, \"fast_s\": {:.3}, \"ref_s\": {:.3}, \"speedup\": {:.1}}},\n  \"sweep\": [\n{sweep}\n  ],\n  \"tiers\": [\n{tiers}\n  ],\n  \"federation_threads\": {},\n  \"shard_efficiency\": {:.3},\n  \"flat_events_per_sec\": {:.0},\n  \"federated_speedup\": {:.2}\n}}\n",
            self.throughput_flows,
            self.fast_events_per_sec,
            self.ref_events_per_sec,
            self.event_speedup(),
            self.reinstall_nodes,
            self.reinstall_fast_s,
            self.reinstall_ref_s,
            self.reinstall_speedup(),
            self.federation_threads,
            self.shard_efficiency,
            self.flat_events_per_sec,
            self.federated_speedup(),
        )
    }
}

/// Drain `flows` identical single-link flows — one equivalence class —
/// and report scheduler events per wall-clock second.
pub fn measure_engine_throughput(flows: usize, mode: EngineMode) -> f64 {
    measure_engine_throughput_bounded(flows, mode, flows)
}

/// [`measure_engine_throughput`] over at most `max_events` events. The
/// reference scheduler is O(F²) per completion (progressive filling
/// freezes one flow per round) — the pathology this PR removes — so it
/// can only be sampled over a bounded prefix at large F; per-event cost
/// is flat across the drain, so the prefix rate is representative.
pub fn measure_engine_throughput_bounded(flows: usize, mode: EngineMode, max_events: usize) -> f64 {
    let mut engine = Engine::new_with_mode(vec![100.0 * 11.0e6], mode);
    for i in 0..flows {
        // Staggered sizes spread the completions out; the identical
        // (route, demand) key keeps every flow in one class.
        engine.start_flow(0, i, 1_000_000 + 64 * i as u64, 1.0e6);
    }
    let start = std::time::Instant::now();
    let mut events = 0usize;
    while events < max_events && engine.step() != Wakeup::Idle {
        events += 1;
    }
    events as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// Run one full reinstall of `nodes` machines under `mode` and return
/// (wall seconds, simulated minutes).
pub fn timed_reinstall(cfg: SimConfig, nodes: usize, mode: EngineMode) -> (f64, f64) {
    let mut sim = ClusterSim::new_with_mode(cfg, nodes, mode);
    let start = std::time::Instant::now();
    let result = sim.run_reinstall();
    (start.elapsed().as_secs_f64(), result.total_minutes())
}

/// Worker threads the federated sweep runs with: one per core, capped
/// at 8 (the efficiency point the acceptance floor is stated at).
pub fn federation_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get).min(8)
}

/// Run one federated (sharded multi-tier) reinstall of `nodes` machines
/// across `threads` workers and report the row.
pub fn timed_federated(nodes: usize, threads: usize) -> FederationRow {
    let cfg = SimConfig::paper_testbed(1).bundled(12).without_node_logs();
    let tiers = TierConfig::standard();
    let mut sim = FederatedSim::new_tiered(cfg, tiers, nodes);
    sim.set_threads(threads);
    let start = std::time::Instant::now();
    let result = sim.run_reinstall();
    let wall_s = start.elapsed().as_secs_f64();
    let report = sim.tier_report().expect("tiered run always has a tier report");
    FederationRow {
        nodes,
        shards: sim.shard_count(),
        threads,
        virtual_minutes: result.total_minutes(),
        wall_ms: wall_s * 1e3,
        events: sim.events(),
        events_per_sec: sim.events() as f64 / wall_s.max(1e-9),
        proxy_hit_bytes: report.proxy_hit_bytes,
        proxy_miss_bytes: report.proxy_miss_bytes,
        cabinet_fill_bytes: report.cabinet_fill_bytes,
        root_fill_bytes: report.root_fill_bytes,
    }
}

/// Collect the full snapshot. `quick` shrinks every dimension so the CI
/// debug build finishes in seconds; the release run covers the full
/// n ∈ {64, 512, 2048, 8192} sweep.
pub fn measure_netsim_scale(quick: bool) -> NetsimScaleSnapshot {
    // 2048 one-class flows is the steady state of the 2048-node sweep —
    // the node count the acceptance floor is stated at.
    let throughput_flows = if quick { 512 } else { 2048 };
    let fast_events_per_sec = measure_engine_throughput(throughput_flows, EngineMode::Fast);
    let ref_events_per_sec =
        measure_engine_throughput_bounded(throughput_flows, EngineMode::Reference, 32);

    // Full fast-vs-reference reinstall runs. 256 nodes keeps the cubic
    // reference path affordable even in quick/debug runs; the release
    // sweep compares at 512 (the reference needs minutes beyond that —
    // which is the result, and the bounded event-rate above captures it
    // at full scale).
    let reinstall_nodes = if quick { 256 } else { 512 };
    let cmp_cfg = SimConfig::paper_testbed(1).bundled(2);
    let (reinstall_fast_s, _) = timed_reinstall(cmp_cfg.clone(), reinstall_nodes, EngineMode::Fast);
    let (reinstall_ref_s, _) = timed_reinstall(cmp_cfg, reinstall_nodes, EngineMode::Reference);

    let ns: &[usize] = if quick { &[64, 512] } else { &[64, 512, 2048, 8192] };
    let mut sweep = Vec::new();
    for &n in ns {
        let variants: [(&'static str, SimConfig); 3] = [
            ("fast-ethernet", SimConfig::paper_testbed(1).bundled(12)),
            ("gige", SimConfig::gige(1).bundled(12)),
            ("replica-4", SimConfig::replicated(4, 1).bundled(12)),
        ];
        for (variant, cfg) in variants {
            let (wall_s, virtual_minutes) = timed_reinstall(cfg, n, EngineMode::Fast);
            sweep.push(SweepRow { variant, nodes: n, virtual_minutes, wall_ms: wall_s * 1e3 });
        }
    }

    // The federated sweep: 65k nodes in quick/debug runs, up to ~1M in
    // the release sweep (8192 is where the flat engine tops out — the
    // federation carries the remaining two orders of magnitude).
    let threads = federation_threads();
    let fed_ns: &[usize] = if quick { &[65_536] } else { &[65_536, 262_144, 1_048_576] };
    let tiers: Vec<FederationRow> = fed_ns.iter().map(|&n| timed_federated(n, threads)).collect();

    // Parallel efficiency at the smallest point. On a single-core host
    // the threaded run *is* the serial run, so the ratio is 1 by
    // definition and we skip the duplicate measurement.
    let shard_efficiency = if threads > 1 {
        let serial = timed_federated(fed_ns[0], 1);
        (serial.wall_ms / tiers[0].wall_ms) / threads as f64
    } else {
        1.0
    };

    // Flat-engine baseline at the same node count and package load.
    let flat_events_per_sec = {
        let cfg = SimConfig::paper_testbed(1).bundled(12).without_node_logs();
        let mut sim = ClusterSim::new_with_mode(cfg, fed_ns[0], EngineMode::Fast);
        let start = std::time::Instant::now();
        sim.run_reinstall();
        sim.events() as f64 / start.elapsed().as_secs_f64().max(1e-9)
    };

    NetsimScaleSnapshot {
        throughput_flows,
        fast_events_per_sec,
        ref_events_per_sec,
        reinstall_nodes,
        reinstall_fast_s,
        reinstall_ref_s,
        sweep,
        tiers,
        shard_efficiency,
        federation_threads: threads,
        flat_events_per_sec,
    }
}

/// Engine-scaling experiment for `reproduce`: measures, writes the
/// `BENCH_netsim.json` snapshot, and reports the table.
pub fn netsim_scale(quick: bool) -> String {
    let snap = measure_netsim_scale(quick);
    let json = snap.to_json();
    let written = write_snapshot("BENCH_netsim.json", &json);
    let mut out = format!(
        "netsim engine scaling: heap + class-aggregated max-min vs reference\n\
         event drain ({} one-class flows): fast {:>9.0} ev/s | ref {:>9.0} ev/s | {:>6.1}x\n\
         reinstall at {} nodes:            fast {:>8.3} s  | ref {:>8.3} s  | {:>6.1}x\n\
         sweep (fast scheduler):\n\
         variant       | nodes | virtual min |  wall ms\n",
        snap.throughput_flows,
        snap.fast_events_per_sec,
        snap.ref_events_per_sec,
        snap.event_speedup(),
        snap.reinstall_nodes,
        snap.reinstall_fast_s,
        snap.reinstall_ref_s,
        snap.reinstall_speedup(),
    );
    for row in &snap.sweep {
        out.push_str(&format!(
            "{:<13} | {:>5} | {:>11.1} | {:>8.1}\n",
            row.variant, row.nodes, row.virtual_minutes, row.wall_ms,
        ));
    }
    out.push_str(&format!(
        "federated sweep ({} threads, shard efficiency {:.2}, {:.1}x flat at {} nodes):\n\
         nodes    | shards | virtual min |  wall ms |      ev/s | root MB | cabinet MB\n",
        snap.federation_threads,
        snap.shard_efficiency,
        snap.federated_speedup(),
        snap.tiers.first().map_or(0, |r| r.nodes),
    ));
    for row in &snap.tiers {
        out.push_str(&format!(
            "{:>8} | {:>6} | {:>11.1} | {:>8.1} | {:>9.0} | {:>7.1} | {:>10.1}\n",
            row.nodes,
            row.shards,
            row.virtual_minutes,
            row.wall_ms,
            row.events_per_sec,
            row.root_fill_bytes / 1e6,
            row.cabinet_fill_bytes / 1e6,
        ));
    }
    out.push_str(&written);
    out.push('\n');
    out
}

// ---------------------------------------------------------------------
// Chaos harness sweep (`reproduce chaos`, BENCH_chaos.json)
// ---------------------------------------------------------------------

/// Everything one chaos sweep measured, renderable as `BENCH_chaos.json`.
#[derive(Debug, Clone)]
pub struct ChaosSnapshot {
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
    /// Wall-clock milliseconds for the whole sweep.
    pub wall_ms: f64,
}

impl ChaosSnapshot {
    /// Scenarios per wall-clock second.
    pub fn scenarios_per_sec(&self) -> f64 {
        self.seeds_run as f64 / (self.wall_ms / 1e3).max(1e-9)
    }

    /// Render as the `BENCH_chaos.json` document.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"experiment\": \"chaos\",\n  \"first_seed\": {},\n  \"seeds_run\": {},\n  \"invariant_violations\": {},\n  \"total_faults\": {},\n  \"completed_nodes\": {},\n  \"unrecoverable_nodes\": {},\n  \"total_attempts\": {},\n  \"total_failovers\": {},\n  \"diff_checked\": {},\n  \"wall_ms\": {:.1},\n  \"scenarios_per_sec\": {:.1}\n}}\n",
            self.first_seed,
            self.seeds_run,
            self.invariant_violations,
            self.total_faults,
            self.completed_nodes,
            self.unrecoverable_nodes,
            self.total_attempts,
            self.total_failovers,
            self.diff_checked,
            self.wall_ms,
            self.scenarios_per_sec(),
        )
    }
}

/// Run the seeded chaos sweep: `count` scenarios starting at
/// `first_seed`, each a randomized topology under a randomized fault
/// schedule, checked against the standard invariant set (byte
/// conservation, eventual completion, monotone phases) with every
/// seventh small plan replayed on the reference engine.
pub fn measure_chaos(first_seed: u64, count: usize) -> ChaosSnapshot {
    let start = std::time::Instant::now();
    let report = rocks_netsim::chaos::run_chaos(first_seed, count);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
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
        wall_ms,
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
         wall: {:.0} ms ({:.0} scenarios/s)\n\
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
        snap.wall_ms,
        snap.scenarios_per_sec(),
        written,
    )
}

// ---------------------------------------------------------------------
// Telemetry overhead (`reproduce trace`, BENCH_trace.json)
// ---------------------------------------------------------------------

/// What one telemetry-overhead run measured, renderable as
/// `BENCH_trace.json`.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// Node count of the timed sweep.
    pub nodes: usize,
    /// Min-of-k wall ms with the tracer disabled (`Tracer::disabled`).
    pub baseline_ms: f64,
    /// Min-of-k wall ms with the no-op sink (full metric pipeline, events
    /// discarded) — the honest upper bound on always-on telemetry cost.
    pub noop_ms: f64,
    /// Events a ring tracer captured during one instrumented run.
    pub events: usize,
    /// Distinct counters the run recorded.
    pub counters: usize,
    /// Whether two consecutive same-seed runs produced byte-identical
    /// normalized trace dumps.
    pub golden_repeatable: bool,
}

impl TraceSnapshot {
    /// No-op-sink overhead over the disabled baseline, in percent
    /// (clamped at zero: timing jitter can make the noop run faster).
    pub fn overhead_pct(&self) -> f64 {
        ((self.noop_ms - self.baseline_ms) / self.baseline_ms * 100.0).max(0.0)
    }

    /// Render as the `BENCH_trace.json` document.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"experiment\": \"trace\",\n  \"nodes\": {},\n  \"baseline_ms\": {:.1},\n  \"noop_ms\": {:.1},\n  \"overhead_pct\": {:.2},\n  \"events\": {},\n  \"counters\": {},\n  \"golden_repeatable\": {}\n}}\n",
            self.nodes,
            self.baseline_ms,
            self.noop_ms,
            self.overhead_pct(),
            self.events,
            self.counters,
            self.golden_repeatable,
        )
    }
}

/// One full reinstall of `nodes` machines reporting through `tracer`;
/// returns wall seconds.
fn timed_traced_reinstall(cfg: SimConfig, nodes: usize, tracer: rocks_trace::Tracer) -> f64 {
    let mut sim = ClusterSim::new(cfg, nodes);
    sim.set_tracer(tracer);
    let start = std::time::Instant::now();
    sim.run_reinstall();
    start.elapsed().as_secs_f64()
}

/// Measure telemetry overhead on the engine-scaling sweep's headline
/// configuration: the disabled tracer (compile-time no-op) vs the no-op
/// sink (every counter live, events discarded). Each variant is timed
/// min-of-k to shed scheduler noise. A third, ring-buffered run counts
/// what a fully-recording tracer captures and checks that two
/// consecutive same-seed runs dump byte-identical normalized traces.
pub fn measure_trace(quick: bool) -> TraceSnapshot {
    let nodes = if quick { 512 } else { 8192 };
    let reps = 5;
    let cfg = || SimConfig::paper_testbed(1).bundled(12);

    // Interleave the variants so slow drift in machine load (or a cold
    // first run) biases neither side of the comparison.
    let mut baseline_s = f64::INFINITY;
    let mut noop_s = f64::INFINITY;
    for _ in 0..reps {
        baseline_s =
            baseline_s.min(timed_traced_reinstall(cfg(), nodes, rocks_trace::Tracer::disabled()));
        noop_s = noop_s.min(timed_traced_reinstall(cfg(), nodes, rocks_trace::Tracer::noop()));
    }
    let baseline_ms = baseline_s * 1e3;
    let noop_ms = noop_s * 1e3;

    // Recording run (smaller: the ring run exists to count and to prove
    // determinism, not to race the sweep).
    let ring_nodes = nodes.min(512);
    let dump_of = || {
        let mut sim = ClusterSim::new(cfg(), ring_nodes);
        sim.set_tracer(rocks_trace::Tracer::ring_sim(1 << 20));
        sim.run_reinstall();
        sim.tracer().dump()
    };
    let first = dump_of();
    let second = dump_of();
    let golden_repeatable = first.normalized(1000) == second.normalized(1000);

    TraceSnapshot {
        nodes,
        baseline_ms,
        noop_ms,
        events: first.events.len(),
        counters: first.metrics.counters.len(),
        golden_repeatable,
    }
}

/// Telemetry-overhead experiment for `reproduce`: measures, writes the
/// `BENCH_trace.json` snapshot, and reports the numbers.
pub fn trace_overhead(quick: bool) -> String {
    let snap = measure_trace(quick);
    require_clean("trace", "golden_repeatable", snap.golden_repeatable, true);
    let written = write_snapshot("BENCH_trace.json", &snap.to_json());
    format!(
        "telemetry overhead: rocks-trace on the {}-node reinstall sweep\n\
         disabled tracer: {:>8.1} ms (min of 5)\n\
         no-op sink:      {:>8.1} ms (min of 5) — {:.2}% overhead\n\
         recording run:   {} events, {} counters captured\n\
         determinism:     same seed, same trace = {}\n\
         {}\n",
        snap.nodes,
        snap.baseline_ms,
        snap.noop_ms,
        snap.overhead_pct(),
        snap.events,
        snap.counters,
        snap.golden_repeatable,
        written,
    )
}

// ---------------------------------------------------------------------
// Durable cluster database (`reproduce db`, BENCH_db.json)
// ---------------------------------------------------------------------

/// One scale point of the durability benchmark.
#[derive(Debug, Clone)]
pub struct DbDurabilitySample {
    /// Rows the table holds before the timed transactions start.
    pub rows: usize,
    /// Timed transactions: 16-row inserts, begin to commit, starting from
    /// an empty log and few enough that no checkpoint falls among them.
    pub commits: u64,
    /// Those transactions per wall-clock second, from the median one.
    pub commits_per_sec: f64,
    /// Reopen time after a plain shutdown: snapshot load plus replay of
    /// the timed transactions from the WAL.
    pub replay_ms: f64,
    /// Commits the reopen actually replayed from the WAL tail.
    pub replayed_commits: u64,
    /// Time of the checkpoint that folds the timed transactions (after
    /// the reopen): what they changed, not what the table holds.
    pub checkpoint_ms: f64,
    /// Pages that checkpoint wrote.
    pub checkpoint_pages: u64,
    /// Reopen time when the log is empty (pure snapshot load).
    pub replay_after_checkpoint_ms: f64,
}

/// Everything `reproduce db` measured, renderable as `BENCH_db.json`.
#[derive(Debug, Clone)]
pub struct DbDurabilitySnapshot {
    /// Whether the quick (CI-sized) variant ran.
    pub quick: bool,
    /// One sample per row scale.
    pub samples: Vec<DbDurabilitySample>,
    /// Seeded workloads swept by the crash-point injector.
    pub sweep_seeds: u64,
    /// Distinct kill points exercised (each one a full recovery).
    pub sweep_crash_points: u64,
    /// Recovery-invariant violations across the sweep (must be 0).
    pub sweep_violations: usize,
}

impl DbDurabilitySnapshot {
    /// Commits per second at the largest table size over the smallest:
    /// 1.0 when a transaction costs what it changes, towards 0 when it
    /// costs what the table holds.
    pub fn commit_scaling(&self) -> f64 {
        let (small, large) = (&self.samples[0], &self.samples[self.samples.len() - 1]);
        large.commits_per_sec / small.commits_per_sec
    }

    /// Render as the `BENCH_db.json` document.
    pub fn to_json(&self) -> String {
        let samples = self
            .samples
            .iter()
            .map(|s| {
                format!(
                    "    {{\"rows\": {}, \"commits\": {}, \"commits_per_sec\": {:.0}, \"replay_ms\": {:.2}, \"replayed_commits\": {}, \"checkpoint_ms\": {:.2}, \"checkpoint_pages\": {}, \"replay_after_checkpoint_ms\": {:.2}}}",
                    s.rows,
                    s.commits,
                    s.commits_per_sec,
                    s.replay_ms,
                    s.replayed_commits,
                    s.checkpoint_ms,
                    s.checkpoint_pages,
                    s.replay_after_checkpoint_ms,
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            "{{\n  \"experiment\": \"db_durability\",\n  \"quick\": {},\n  \"samples\": [\n{samples}\n  ],\n  \"commit_scaling\": {:.2},\n  \"crash_sweep\": {{\"seeds\": {}, \"crash_points\": {}, \"violations\": {}}}\n}}\n",
            self.quick,
            self.commit_scaling(),
            self.sweep_seeds,
            self.sweep_crash_points,
            self.sweep_violations,
        )
    }
}

/// Load `rows` rows into a fresh durable engine, then measure what small
/// transactions cost against a table of that size, reopen (recovery)
/// time, and checkpoint cost. The recovered state is verified against
/// the pre-shutdown fingerprint before any number is reported.
pub fn measure_db_scale(rows: usize) -> DbDurabilitySample {
    use rocks_sql::durable::DurableDatabase;
    use rocks_sql::MemVfs;

    /// 100 x 16 rows is ~100 KiB of log: under the 256 KiB checkpoint
    /// threshold, so the window times commits and nothing else.
    const COMMITS: usize = 100;
    const BATCH: usize = 16;
    let insert = |id: usize| {
        format!("insert into nodes values ({id}, 'node-{id}', {}, {})", id % 5, id % 32)
    };

    let vfs = MemVfs::new();
    let mut db = DurableDatabase::open(&vfs).expect("fresh open");
    db.execute("create table nodes (id int, name text, membership int, rack int)").expect("schema");
    db.begin().expect("begin load");
    for id in 0..rows {
        db.execute(&insert(id)).expect("load");
    }
    db.commit().expect("commit load");
    // A load this size checkpoints on commit by the engine's own policy;
    // a smaller one is folded here, so every size starts on an empty log.
    if db.stats().checkpoints() == 0 {
        db.checkpoint().expect("checkpoint load");
    }

    let mut commit_ns = Vec::with_capacity(COMMITS);
    for c in 0..COMMITS {
        let batch: Vec<String> = (0..BATCH).map(|i| insert(rows + c * BATCH + i)).collect();
        let t = std::time::Instant::now();
        db.begin().expect("begin");
        for sql in &batch {
            db.execute(sql).expect("insert");
        }
        db.commit().expect("commit");
        commit_ns.push(t.elapsed().as_nanos() as f64);
    }
    assert_eq!(db.stats().checkpoints(), 1, "a checkpoint fell inside the timed window");
    commit_ns.sort_by(f64::total_cmp);
    let commits = COMMITS as u64;
    let commits_per_sec = 1e9 / commit_ns[COMMITS / 2].max(1.0);
    let fingerprint = db.state_fingerprint();
    drop(db);

    let t = std::time::Instant::now();
    let mut db = DurableDatabase::open(&vfs).expect("reopen");
    let replay_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(db.state_fingerprint(), fingerprint, "recovery lost state at {rows} rows");
    let replayed_commits = db.recovery_report().commits_replayed;

    let t = std::time::Instant::now();
    db.checkpoint().expect("checkpoint");
    let checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
    let checkpoint_pages = db.stats().checkpoint_pages();
    drop(db);

    let t = std::time::Instant::now();
    let db = DurableDatabase::open(&vfs).expect("reopen after checkpoint");
    let replay_after_checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(db.state_fingerprint(), fingerprint);
    assert_eq!(db.recovery_report().commits_replayed, 0, "checkpoint left WAL work behind");

    DbDurabilitySample {
        rows,
        commits,
        commits_per_sec,
        replay_ms,
        replayed_commits,
        checkpoint_ms,
        checkpoint_pages,
        replay_after_checkpoint_ms,
    }
}

/// The full measurement: throughput/recovery samples at each scale plus
/// a crash-point sweep (every mutating disk op of each seeded workload
/// is a kill point; each survivor is recovered and checked).
pub fn measure_db_durability(quick: bool) -> DbDurabilitySnapshot {
    let scales: &[usize] = if quick { &[10_000] } else { &[10_000, 100_000, 1_000_000] };
    let samples = scales.iter().map(|&rows| measure_db_scale(rows)).collect();
    let seeds = if quick { 2 } else { 6 };
    let sweep = rocks_sql::crashtest::sweep(0xD0_0DAD, seeds);
    DbDurabilitySnapshot {
        quick,
        samples,
        sweep_seeds: sweep.seeds,
        sweep_crash_points: sweep.crash_points,
        sweep_violations: sweep.violations.len(),
    }
}

/// Durability experiment for `reproduce`: writes `BENCH_db.json` and
/// reports the table. A crash-sweep violation panics instead (`cargo
/// test -p rocks-sql --test crash_points` names its seed and kill point).
pub fn db_durability(quick: bool) -> String {
    let snap = measure_db_durability(quick);
    require_clean("db", "crash_sweep.violations", snap.sweep_violations, 0);
    let written = write_snapshot("BENCH_db.json", &snap.to_json());
    let mut rows = String::new();
    for s in &snap.samples {
        rows.push_str(&format!(
            "{:>8} | {:>12.0} | {:>9.2} ({:>3} commits) | {:>7.2} ({:>3} pages) | {:>13.2}\n",
            s.rows,
            s.commits_per_sec,
            s.replay_ms,
            s.replayed_commits,
            s.checkpoint_ms,
            s.checkpoint_pages,
            s.replay_after_checkpoint_ms,
        ));
    }
    format!(
        "durable cluster database: WAL commit throughput and recovery\n\
         rows     | commits/sec  | reopen ms (tail replay) | chkpt ms (written)  | snap-only ms\n\
         {rows}\
         commit scaling (largest / smallest table): {:.2}\n\
         crash sweep: {} seeds, {} kill points — all recovery invariants held\n\
         {written}\n",
        snap.commit_scaling(),
        snap.sweep_seeds,
        snap.sweep_crash_points,
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
pub struct RolloutRun {
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
    pub fn throughput_loss(&self) -> f64 {
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
pub struct RolloutSnapshot {
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
    /// Wall-clock milliseconds for the whole benchmark.
    pub wall_ms: f64,
}

impl RolloutSnapshot {
    /// How much better the rolling policy retains batch throughput than
    /// the naive mass reinstall. The release gate holds this at >= 1.5.
    pub fn retention_ratio(&self) -> f64 {
        self.rolling.throughput_retention / self.naive.throughput_retention.max(1e-9)
    }

    /// Render as the `BENCH_rollout.json` document.
    pub fn to_json(&self) -> String {
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
             \"invariant_violations\": {},\n  \"wall_ms\": {:.1}\n}}\n",
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
            self.wall_ms,
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
pub fn measure_rollout(quick: bool) -> RolloutSnapshot {
    let start = std::time::Instant::now();
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
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
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
         wall: {:.0} ms\n\
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
        snap.wall_ms,
        written,
    )
}

// ---------------------------------------------------------------------
// High-throughput kickstart serving (`reproduce serve`, BENCH_serve.json)
// ---------------------------------------------------------------------

/// The p99 ceiling the serving SLO gate enforces at saturation, µs of
/// virtual time.
pub const SERVE_SLO_P99_US: u64 = 1_000;

/// Minimum completed-request throughput the 8-shard frontend must
/// sustain at saturation, requests per simulated second.
pub const SERVE_SLO_MIN_RPS: f64 = 100_000.0;

/// One frontend configuration measured at saturation: offered load far
/// past capacity, a tight admission queue, and the completed-request
/// throughput plus tail latency that survive it.
#[derive(Debug, Clone)]
pub struct ServeRun {
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
pub struct ServeSnapshot {
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
    /// OS threads in the wall-clock saturation run.
    pub saturation_threads: usize,
    /// Real kickstart generations per wall-clock second across those
    /// threads (one shared skeleton cache under true contention).
    pub saturation_ks_per_s: f64,
    /// Seeds in the folded-in invariant sweep.
    pub sweep_seeds: usize,
    /// Violations across that sweep (must be 0).
    pub sweep_violations: usize,
    /// Wall-clock milliseconds for the whole benchmark.
    pub wall_ms: f64,
}

impl ServeSnapshot {
    /// The headline 8-shard saturation run.
    pub fn headline(&self) -> &ServeRun {
        self.shard_sweep.last().expect("sweep is non-empty")
    }

    /// Render as the `BENCH_serve.json` document.
    pub fn to_json(&self) -> String {
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
             \"saturation\": {{ \"threads\": {}, \"kickstarts_per_s\": {:.0} }},\n  \
             \"sweep_seeds\": {},\n  \"violations\": {},\n  \"wall_ms\": {:.1}\n}}\n",
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
            self.saturation_threads,
            self.saturation_ks_per_s,
            self.sweep_seeds,
            self.sweep_violations,
            self.wall_ms,
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

/// The saturation run the SLO gate reads: 8 shards × 4 workers, offered
/// load far past capacity. Virtual-time measurement — debug and release
/// builds produce bit-identical numbers.
pub fn serve_slo_run(horizon_us: u64) -> ServeRun {
    let cfg = serve_saturation_cfg(8);
    let wl = serve_saturation_workload(horizon_us);
    let report = serve_measure(&cfg, &wl, &mut ModelBackend::new(64, 4, 6));
    ServeRun::from_report(&cfg, &report)
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

/// Wall-clock saturation of the real generation path: `threads` OS
/// threads hammer `generate_for_request` against one shared service and
/// database, exercising the shared skeleton cache under true
/// contention. Returns kickstarts per wall-clock second.
fn serve_real_saturation(threads: usize, iters_per_thread: usize) -> f64 {
    // `ClusterDb` cannot cross threads, so each worker builds its own
    // identical copy in-thread (deterministic construction — every copy
    // resolves every target alike) and all of them contend on the
    // *shared* service's one skeleton cache, the serving hot path. A barrier
    // keeps construction and warmup out of the timed region.
    let setup_db = serve_cluster_db(64);
    let svc = serve_generation_service();
    let targets = setup_db.kickstart_targets().unwrap();
    // Warm every root once so the measurement is the steady state.
    for t in &targets {
        svc.generate_for_request(&setup_db, &t.ip, rocks_rpm::Arch::I686).unwrap();
    }
    let barrier = std::sync::Barrier::new(threads + 1);
    let mut start = std::time::Instant::now();
    std::thread::scope(|scope| {
        for tid in 0..threads {
            let svc = &svc;
            let targets = &targets;
            let barrier = &barrier;
            scope.spawn(move || {
                let db = serve_cluster_db(64);
                barrier.wait();
                for i in 0..iters_per_thread {
                    let t = &targets[(tid * 7 + i) % targets.len()];
                    svc.generate_for_request(&db, &t.ip, rocks_rpm::Arch::I686).unwrap();
                }
            });
        }
        barrier.wait();
        // The clock runs from barrier release to the scope-exit join.
        start = std::time::Instant::now();
    });
    (threads * iters_per_thread) as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// Measure the shard sweep, the burst/priority/storm scenarios, the
/// end-to-end real-backend run, the wall-clock saturation, and the
/// folded-in invariant sweep.
pub fn measure_serve(quick: bool) -> ServeSnapshot {
    let start = std::time::Instant::now();
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

    let saturation_threads = 8;
    let saturation_ks_per_s =
        serve_real_saturation(saturation_threads, if quick { 500 } else { 5_000 });

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
        saturation_threads,
        saturation_ks_per_s,
        sweep_seeds: sweep_seeds as usize,
        sweep_violations: sweep.violations.len(),
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
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
         wall-clock saturation: {:.0} kickstarts/s on {} threads\n\
         invariant sweep: {} seeds — all invariants held\n\
         wall: {:.0} ms\n\
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
        snap.saturation_ks_per_s,
        snap.saturation_threads,
        snap.sweep_seeds,
        snap.wall_ms,
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
    fn sql_planner_beats_scan_at_10k_rows() {
        let snap = measure_sql_engine(10_000, 2);
        assert!(
            snap.point_speedup() >= 10.0,
            "point query only {:.1}x faster ({}ns -> {}ns)",
            snap.point_speedup(),
            snap.point_scan_ns,
            snap.point_indexed_ns,
        );
        assert!(
            snap.join_speedup() >= 5.0,
            "equi-join only {:.1}x faster ({}ns -> {}ns)",
            snap.join_speedup(),
            snap.join_scan_ns,
            snap.join_indexed_ns,
        );
        // The skewed arch column demonstrates the scan↔index crossover:
        // broad predicate scans, selective predicate probes.
        assert_eq!(snap.broad_plan, "scan");
        assert_eq!(snap.selective_plan, "index");
        assert!(
            snap.crossover_rows > 1000.0 && snap.crossover_rows < 10_000.0,
            "crossover {} out of range for 10k rows",
            snap.crossover_rows
        );
    }

    /// The release floor the CI sweep enforces: cost-based plans must be
    /// at least as fast as the PR2 heuristic on the point lookup and the
    /// three-table join. Debug builds measure at 10k rows so the tier-1
    /// run stays quick; release CI measures the full 1M-row case.
    #[test]
    fn sql_cost_model_floor() {
        let rows = if cfg!(debug_assertions) { 10_000 } else { 1_000_000 };
        let snap = measure_sql_engine(rows, 3);
        // Both planners pick the same index probe here; the assertion
        // exists to catch the cost model regressing to a scan (which
        // would be orders of magnitude slower), so the tolerance only
        // needs to absorb planning overhead and timer noise.
        assert!(
            snap.point_cost_ns <= snap.point_heuristic_ns * 2.0,
            "cost-based point lookup regressed: {:.0}ns vs heuristic {:.0}ns at {rows} rows",
            snap.point_cost_ns,
            snap.point_heuristic_ns,
        );
        let floor = if cfg!(debug_assertions) { 1.0 } else { 2.0 };
        assert!(
            snap.three_table_speedup() >= floor,
            "three-table reorder only {:.2}x vs heuristic at {rows} rows \
             ({:.0}ns vs {:.0}ns, floor {floor}x)",
            snap.three_table_speedup(),
            snap.three_table_cost_ns,
            snap.three_table_heuristic_ns,
        );
    }

    #[test]
    fn sql_snapshot_json_is_well_formed() {
        let snap = SqlEngineSnapshot {
            rows: 10,
            point_scan_ns: 1000.0,
            point_indexed_ns: 50.0,
            point_cost_ns: 100.0,
            point_heuristic_ns: 100.0,
            join_scan_ns: 2000.0,
            join_indexed_ns: 200.0,
            crossover_rows: 7.0,
            broad_plan: "scan",
            selective_plan: "index",
            algo_chosen: "hash",
            join_hash_ns: 500.0,
            join_merge_ns: 700.0,
            three_table_heuristic_ns: 900.0,
            three_table_cost_ns: 300.0,
        };
        let json = snap.to_json();
        assert!(json.contains("\"rows\": 10"));
        assert!(json.contains("\"speedup\": 20.0"));
        assert!(json.contains("\"speedup\": 10.0"));
        assert!(json.contains("\"crossover\""));
        assert!(json.contains("\"scan_vs_index_match_rows\": 7"));
        assert!(json.contains("\"broad_plan\": \"scan\""));
        assert!(json.contains("\"join_algo\""));
        assert!(json.contains("\"three_table_join\""));
        assert!(json.contains("\"speedup\": 3.0"));
        let model = cost_model_json();
        assert!(model.contains("\"build_amortize\": 32"));
        assert!(model.contains("\"merge_base\": 64"));
    }

    #[test]
    fn bringup_summary_reports_consistency() {
        let text = bringup_summary();
        assert!(text.contains("0 inconsistent"), "{text}");
        assert!(text.contains("8 PBS nodes"), "{text}");
    }

    #[test]
    fn netsim_snapshot_json_has_required_keys() {
        let snap = NetsimScaleSnapshot {
            throughput_flows: 8,
            fast_events_per_sec: 100.0,
            ref_events_per_sec: 10.0,
            reinstall_nodes: 4,
            reinstall_fast_s: 0.1,
            reinstall_ref_s: 1.0,
            sweep: vec![SweepRow {
                variant: "gige",
                nodes: 64,
                virtual_minutes: 10.0,
                wall_ms: 5.0,
            }],
            tiers: vec![FederationRow {
                nodes: 65_536,
                shards: 1024,
                threads: 8,
                virtual_minutes: 12.0,
                wall_ms: 900.0,
                events: 2_000_000,
                events_per_sec: 2.2e6,
                proxy_hit_bytes: 111,
                proxy_miss_bytes: 222,
                cabinet_fill_bytes: 333.0,
                root_fill_bytes: 444.0,
            }],
            shard_efficiency: 0.75,
            federation_threads: 8,
            flat_events_per_sec: 0.5e6,
        };
        let json = snap.to_json();
        for key in [
            "\"experiment\": \"netsim_scale\"",
            "\"fast_events_per_sec\"",
            "\"ref_events_per_sec\"",
            "\"speedup\": 10.0",
            "\"reinstall\"",
            "\"sweep\"",
            "\"variant\": \"gige\"",
            "\"nodes\": 64",
            "\"virtual_minutes\": 10.0",
            "\"wall_ms\": 5.0",
            "\"tiers\"",
            "\"nodes\": 65536",
            "\"shards\": 1024",
            "\"proxy_hit_bytes\": 111",
            "\"proxy_miss_bytes\": 222",
            "\"cabinet_fill_bytes\": 333",
            "\"root_fill_bytes\": 444",
            "\"shard_efficiency\": 0.750",
            "\"federation_threads\": 8",
            "\"federated_speedup\": 4.40",
        ] {
            assert!(json.contains(key), "missing {key} in\n{json}");
        }
    }

    #[test]
    fn engine_throughput_measures_both_schedulers() {
        let fast = measure_engine_throughput(64, EngineMode::Fast);
        let reference = measure_engine_throughput(64, EngineMode::Reference);
        assert!(fast > 0.0 && reference > 0.0, "fast {fast} ref {reference}");
    }

    #[test]
    fn fast_scheduler_is_50x_faster_at_2048_nodes() {
        // The PR's acceptance floor, measured at the 2048-node sweep's
        // steady state: 2048 live flows in one (route, demand) class.
        // The fast side drains all 2048 completions; the reference side
        // is O(F²) per event (progressive filling freezes one flow per
        // round), so eight events suffice — and a full reference drain
        // would take minutes, which is exactly the pathology under test.
        // Debug-build wall clocks; the release numbers recorded in
        // BENCH_netsim.json are much larger.
        let fast = measure_engine_throughput(2048, EngineMode::Fast);
        let reference = measure_engine_throughput_bounded(2048, EngineMode::Reference, 8);
        assert!(
            fast >= reference * 50.0,
            "only {:.1}x faster (fast {fast:.0} ev/s, ref {reference:.1} ev/s)",
            fast / reference
        );
    }

    #[test]
    fn netsim_scale_quick_measurement_is_coherent() {
        let snap = measure_netsim_scale(true);
        assert_eq!(snap.sweep.len(), 6, "2 node counts x 3 variants");
        assert!(snap.sweep.iter().all(|r| r.virtual_minutes > 0.0 && r.wall_ms >= 0.0));
        // One Fast-Ethernet server at 512 nodes is far past the knee;
        // GigE and 4 replicas must both pull the curve back down.
        let minutes = |variant: &str, nodes: usize| {
            snap.sweep
                .iter()
                .find(|r| r.variant == variant && r.nodes == nodes)
                .expect("sweep row")
                .virtual_minutes
        };
        assert!(minutes("gige", 512) < minutes("fast-ethernet", 512));
        assert!(minutes("replica-4", 512) < minutes("fast-ethernet", 512));
        // The federated point: every cabinet's packages crossed the
        // campus uplinks once, so cabinet fills stay a small multiple of
        // (but strictly above) the root's one-per-campus deliveries.
        assert_eq!(snap.tiers.len(), 1, "quick sweep runs the 65k point");
        let fed = &snap.tiers[0];
        assert_eq!(fed.nodes, 65_536);
        assert_eq!(fed.shards, 1024);
        assert!(fed.virtual_minutes > 0.0 && fed.events > 0);
        assert!(fed.proxy_hit_bytes > 0, "later fetchers must hit the proxy cache");
        assert!(fed.cabinet_fill_bytes > fed.root_fill_bytes);
        assert!(snap.shard_efficiency > 0.0);
        assert!(snap.flat_events_per_sec > 0.0);
    }

    /// The release floor the CI sweep enforces for the federated engine:
    /// at 65k nodes the sharded run must beat the flat engine's
    /// events/second — 4x with 8+ worker cores, scaled down on smaller
    /// hosts (on one core the only win is smaller per-shard schedulers,
    /// so the floor just guards against regression). Debug builds
    /// measure at 8k nodes so the tier-1 run stays quick.
    #[test]
    fn netsim_federation_floor() {
        let nodes = if cfg!(debug_assertions) { 8_192 } else { 65_536 };
        let threads = federation_threads();
        let fed = timed_federated(nodes, threads);
        let flat_events_per_sec = {
            let cfg = SimConfig::paper_testbed(1).bundled(12).without_node_logs();
            let mut sim = ClusterSim::new_with_mode(cfg, nodes, EngineMode::Fast);
            let start = std::time::Instant::now();
            sim.run_reinstall();
            sim.events() as f64 / start.elapsed().as_secs_f64().max(1e-9)
        };
        let speedup = fed.events_per_sec / flat_events_per_sec;
        let floor = match threads {
            8.. => 4.0,
            4..=7 => 2.0,
            _ => 0.5,
        };
        assert!(
            speedup >= floor,
            "federated only {speedup:.2}x flat at {nodes} nodes with {threads} threads \
             (fed {:.0} ev/s, flat {flat_events_per_sec:.0} ev/s, floor {floor}x)",
            fed.events_per_sec,
        );
        if threads > 1 {
            let serial = timed_federated(nodes, 1);
            let efficiency = (serial.wall_ms / fed.wall_ms) / threads as f64;
            assert!(
                efficiency >= 0.6,
                "shard efficiency {efficiency:.2} below 0.6 at {threads} threads \
                 (serial {:.0} ms, threaded {:.0} ms)",
                serial.wall_ms,
                fed.wall_ms,
            );
        }
    }

    #[test]
    fn trace_snapshot_json_has_the_contract_keys_and_is_repeatable() {
        let snap = measure_trace(true);
        assert!(snap.baseline_ms > 0.0);
        assert!(snap.events > 0);
        assert!(snap.counters > 0);
        assert!(snap.golden_repeatable, "same seed must dump the same trace");
        let json = snap.to_json();
        for key in [
            "\"experiment\": \"trace\"",
            "\"nodes\"",
            "\"baseline_ms\"",
            "\"noop_ms\"",
            "\"overhead_pct\"",
            "\"events\"",
            "\"counters\"",
            "\"golden_repeatable\": true",
        ] {
            assert!(json.contains(key), "missing {key} in\n{json}");
        }
    }

    #[test]
    fn disabled_telemetry_sweep_stays_within_noise() {
        // The PR-3 scaling result must survive the instrumentation: a
        // disabled tracer compiles to an early return, so the sweep with
        // telemetry machinery present must track the no-op-sink run
        // within a generous debug-build noise factor.
        let nodes = 256;
        let cfg = || SimConfig::paper_testbed(1).bundled(12);
        let min_wall = |tracer: fn() -> rocks_trace::Tracer| {
            (0..3)
                .map(|_| timed_traced_reinstall(cfg(), nodes, tracer()))
                .fold(f64::INFINITY, f64::min)
        };
        let disabled = min_wall(rocks_trace::Tracer::disabled);
        let noop = min_wall(rocks_trace::Tracer::noop);
        assert!(
            noop <= disabled * 1.5 + 0.01,
            "no-op telemetry cost blew past noise: disabled {disabled:.4}s vs noop {noop:.4}s"
        );
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
            "\"wall_ms\"",
            "\"scenarios_per_sec\"",
        ] {
            assert!(json.contains(key), "missing {key} in\n{json}");
        }
    }

    #[test]
    fn db_durability_quick_snapshot_has_schema() {
        let snap = measure_db_durability(true);
        assert_eq!(snap.sweep_violations, 0, "crash sweep violated recovery invariants");
        assert!(snap.sweep_crash_points > 100);
        assert_eq!(snap.samples.len(), 1);
        assert!(snap.samples[0].commits_per_sec > 0.0);
        let json = snap.to_json();
        for key in [
            "\"experiment\": \"db_durability\"",
            "\"quick\": true",
            "\"samples\"",
            "\"rows\": 10000",
            "\"commits\": 100",
            "\"commits_per_sec\"",
            "\"replay_ms\"",
            "\"replayed_commits\"",
            "\"checkpoint_ms\"",
            "\"checkpoint_pages\"",
            "\"replay_after_checkpoint_ms\"",
            "\"commit_scaling\"",
            "\"crash_sweep\"",
            "\"crash_points\"",
            "\"violations\": 0",
        ] {
            assert!(json.contains(key), "missing {key} in\n{json}");
        }
    }

    /// The ROADMAP gate for a write path that costs O(change): commits
    /// per second on a 1M-row table within 2x of a 10k-row table, and the
    /// checkpoint that folds the same 100 x 16-row commits writing the
    /// same pages (give or take the taller tree's extra levels) in at
    /// most twice the time. Debug builds stop at 50k rows so the workspace
    /// test run stays quick; release CI measures the full span.
    #[test]
    fn db_commit_scaling_floor() {
        let rows = if cfg!(debug_assertions) { 50_000 } else { 1_000_000 };
        // The checkpoint is timed once per load, in hundreds of
        // microseconds: take each size's best of three.
        let measure = |rows| {
            let samples: Vec<DbDurabilitySample> = (0..3).map(|_| measure_db_scale(rows)).collect();
            let commits = samples.iter().map(|s| s.commits_per_sec).fold(0.0, f64::max);
            let ms = samples.iter().map(|s| s.checkpoint_ms).fold(f64::INFINITY, f64::min);
            (commits, ms, samples[0].checkpoint_pages)
        };
        let (small, small_ms, small_pages) = measure(10_000);
        let (large, large_ms, large_pages) = measure(rows);
        assert!(
            large / small >= 0.5,
            "commits/s fell {small:.0} -> {large:.0} from 10k to {rows} rows (floor: half)"
        );
        assert!(
            large_pages.abs_diff(small_pages) <= 3,
            "the checkpoint wrote {small_pages} pages at 10k rows, {large_pages} at {rows}"
        );
        assert!(
            large_ms <= 2.0 * small_ms,
            "the checkpoint took {small_ms:.3} ms at 10k rows, {large_ms:.3} ms at {rows}"
        );
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
        let run = serve_slo_run(50_000);
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
        assert!(snap.real_rps > 0.0 && snap.saturation_ks_per_s > 0.0);
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
            "\"saturation\"",
            "\"violations\": 0",
        ] {
            assert!(json.contains(key), "missing {key} in\n{json}");
        }
    }
}
