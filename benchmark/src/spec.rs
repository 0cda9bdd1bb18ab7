//! The benchmark's names: workloads, end-to-end metrics, per-layer
//! metrics. `BENCHMARK.json` at the repository root carries the same
//! tables for the driver; a test holds the two together.

use crate::estimator::Better::{self, Higher, Lower};
use crate::json::Json;

/// Seed of a run that names none.
pub const DEFAULT_SEED: u64 = 20_010_901;
/// Measuring budget of a run that names none; `run_seconds` in
/// `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 20.0;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "ks-warm",
        why: "mass-reinstall hot path: frontend loop, resolve, localize and render on warm skeletons; storage and planner idle",
    },
    Workload {
        name: "ks-churn",
        why: "insert-ethers writes between request blocks: each write stales skeletons and lazy indexes, working set defeats the cache",
    },
    Workload {
        name: "db-ingest",
        why: "16-row durable commits, recovery and checkpoints on a 20,000-row table: the only workload where begin, WAL, pager and recovery dominate",
    },
    Workload {
        name: "admin-query",
        why: "read-only --query= mix on 20,000 nodes: index path sets the median, scan, join and aggregate set throughput and tail",
    },
    Workload {
        name: "sim-reinstall",
        why: "host cost of the Table I simulators; touches no SQL or kickstart code, so it is the no-change control for the other four",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// What the metric is on each workload, in [`WORKLOADS`] order: the
    /// name the issue gave it, and what is measured.
    pub on: [(&'static str, &'static str); 5],
}

const ALL: &str = "all";

/// Every workload reports every one of these, so each is defined per
/// workload; `on` says how.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        on: [
            (ALL, "build the 1,025-node database and the service, resolve targets, warm each skeleton"),
            (ALL, "as ks-warm"),
            (ALL, "open a durable database on MemVfs, load 20,000 rows in one transaction, checkpoint"),
            (ALL, "load 20,000 rows, run each of the 384 pooled statements once"),
            (ALL, "synthesize the installed distribution, order the 256 rollout plans"),
        ],
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.10,
        on: [(ALL, "VmHWM once every kind of round has run its minimum count"); 5],
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        on: [
            ("ks_rps", "kickstarts completed per wall second of run_serve"),
            ("ks_rps", "kickstarts per second inside one observe and the 256 requests after it"),
            ("commits_per_s", "16-row transactions per second, begin to commit, per transaction"),
            ("query_qps", "query_names calls per second, per hundred calls"),
            ("sim_events_per_s", "simulated events per host second, federated, at the load threads"),
        ],
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
        on: [
            ("ks_p50_us", "median RealBackend::install call (generate + render)"),
            ("ks_p50_us", "median generate_for_request + render"),
            ("commit_p50_us", "median transaction, begin to commit"),
            ("query_p50_us", "median query_names call"),
            ("rollout_p50_us", "median RolloutPlan::generate(seed).run()"),
        ],
    },
    EndToEnd {
        name: "op_tail_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
        on: [
            ("ks_p99_us", "99th percentile of the install calls of the clean rounds"),
            ("ks_after_write_us", "median request right after a write (stale skeleton, cold indexes), 16 to a round"),
            ("commit_p90_us", "90th percentile of the transactions of the clean rounds, 8 to a round"),
            ("query_p99_us", "98.5th percentile of the calls of the clean rounds: inside the broad-join class"),
            ("rollout_p95_us", "95th percentile of the plans of the clean rounds"),
        ],
    },
    EndToEnd {
        name: "bulk_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        on: [
            ("massgen_nodes_per_s", "one generate_all over 1,025 nodes at the load threads (nodes/s = 1,025,000 / bulk_ms)"),
            ("integrate_p50_ms", "median InsertEthers::observe, reports included"),
            ("checkpoint_ms", "one checkpoint"),
            ("scan_ms", "mean of the order-by, broad-join and count(*) call in a hundred calls"),
            ("flat_reinstall_ms", "one flat ClusterSim reinstall of 256 nodes"),
        ],
    },
    EndToEnd {
        name: "restart_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        on: [
            ("massgen_cold_ms", "new GenerationService (profiles parsed, skeletons cold) + generate_all"),
            ("serve_cold_ms", "ClusterDb::clone + new service + the first 256 requests"),
            ("recovery_ms", "open_durable on the crash survivor: snapshot load + 8 commits replayed"),
            ("query_cold_ms", "ClusterDb::clone (cold plan cache) + one pass over the pool"),
            ("sim_build_ms", "FederatedSim::new_tiered(8,192) + ClusterSim::new(256)"),
        ],
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count that must repeat bit for bit for one seed.
    pub exact: bool,
    /// The workload family whose fixture it is measured on at full size.
    pub home: Family,
    /// The end-to-end metric it should move, and where.
    pub moves: &'static str,
}

/// Workloads that share a fixture and a layer probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    Ks,
    Ingest,
    Query,
    Sim,
    /// Measured on every workload's own traced pass.
    Any,
}

pub fn family_of(workload: &str) -> Option<Family> {
    match workload {
        "ks-warm" | "ks-churn" => Some(Family::Ks),
        "db-ingest" => Some(Family::Ingest),
        "admin-query" => Some(Family::Query),
        "sim-reinstall" => Some(Family::Sim),
        _ => None,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    exact: bool,
    home: Family,
    moves: &'static str,
) -> Layer {
    Layer { name, unit, better, exact, home, moves }
}

use Family::{Any, Ingest, Ks, Query, Sim};

pub const PER_LAYER: [Layer; 45] = [
    layer("serve.frontend.ns_per_req", "ns", Lower, false, Ks, "ops_per_s on ks-warm"),
    layer("serve.backend.install_ns", "ns", Lower, false, Ks, "op_p50_us on ks-warm"),
    layer("kickstart.resolve_ns", "ns", Lower, false, Ks, "op_p50_us on ks-warm"),
    layer("kickstart.service.warm_ns", "ns", Lower, false, Ks, "op_p50_us on ks-warm"),
    layer("kickstart.service.miss_us", "us", Lower, false, Ks, "op_tail_us on ks-churn"),
    layer("kickstart.generator.skeleton_us", "us", Lower, false, Ks, "op_tail_us on ks-churn"),
    layer("kickstart.render_ns", "ns", Lower, false, Ks, "op_p50_us on both ks workloads"),
    layer("kickstart.body_bytes", "bytes", Lower, true, Ks, "op_p50_us on both ks workloads"),
    layer("kickstart.service.hit_ratio", "ratio", Higher, true, Ks, "ops_per_s on ks-churn"),
    layer("kickstart.service.invalidations", "count", Lower, true, Ks, "ops_per_s on ks-churn"),
    layer("kickstart.service.generate_all_t1_ms", "ms", Lower, false, Ks, "bulk_ms on ks-warm"),
    layer(
        "kickstart.service.parallel_efficiency",
        "ratio",
        Higher,
        false,
        Ks,
        "bulk_ms on ks-warm",
    ),
    layer("db.node_by_ip_ns", "ns", Lower, false, Ks, "op_p50_us on ks-warm"),
    layer("db.first_lookup_after_write_us", "us", Lower, false, Ks, "op_tail_us on ks-churn"),
    layer("db.kickstart_targets_ms", "ms", Lower, false, Ks, "setup_s on ks workloads"),
    layer("db.insert_ethers.observe_ms", "ms", Lower, false, Ks, "bulk_ms, ops_per_s on ks-churn"),
    layer("db.reports.generate_all_ms", "ms", Lower, false, Ks, "bulk_ms, ops_per_s on ks-churn"),
    layer("db.clone_ms", "ms", Lower, false, Ks, "restart_ms on ks-churn; untimed in its rounds"),
    layer(
        "sql.render_ascii_us",
        "us",
        Lower,
        false,
        Ks,
        "none today: the report path is off in ks-warm",
    ),
    layer("sql.durable.begin_ms", "ms", Lower, false, Ingest, "ops_per_s on db-ingest"),
    layer("sql.durable.execute_us", "us", Lower, false, Ingest, "ops_per_s on db-ingest"),
    layer("sql.durable.commit_ms", "ms", Lower, false, Ingest, "ops_per_s on db-ingest"),
    layer(
        "sql.wal.bytes_per_row",
        "bytes",
        Lower,
        true,
        Ingest,
        "ops_per_s, restart_ms on db-ingest",
    ),
    layer("sql.wal.fsyncs_per_commit", "count", Lower, true, Ingest, "ops_per_s on db-ingest"),
    layer("sql.vfs.writes_per_commit", "count", Lower, true, Ingest, "ops_per_s on db-ingest"),
    layer("sql.durable.checkpoint_pages", "count", Lower, true, Ingest, "bulk_ms on db-ingest"),
    layer(
        "sql.durable.bytes_per_user_byte",
        "ratio",
        Lower,
        false,
        Ingest,
        "bulk_ms, peak_rss_mb on db-ingest",
    ),
    layer("sql.recovery.replayed_commits", "count", Lower, true, Ingest, "restart_ms on db-ingest"),
    layer("sql.exec.point_ns", "ns", Lower, false, Query, "op_p50_us on admin-query"),
    layer("sql.exec.rack_us", "us", Lower, false, Query, "op_p50_us on admin-query"),
    layer("sql.exec.join_selective_us", "us", Lower, false, Query, "op_p50_us on admin-query"),
    layer("sql.exec.order_by_ms", "ms", Lower, false, Query, "ops_per_s, bulk_ms on admin-query"),
    layer(
        "sql.exec.join_broad_ms",
        "ms",
        Lower,
        false,
        Query,
        "ops_per_s, op_tail_us on admin-query",
    ),
    layer("sql.exec.count_ms", "ms", Lower, false, Query, "ops_per_s, bulk_ms on admin-query"),
    layer("sql.plan.replan_ns", "ns", Lower, false, Query, "op_p50_us on admin-query"),
    layer("sql.plan_cache.hit_ratio", "ratio", Higher, true, Query, "ops_per_s on admin-query"),
    layer(
        "sql.exec.rows_examined_per_returned",
        "ratio",
        Lower,
        true,
        Query,
        "ops_per_s on admin-query",
    ),
    layer("netsim.engine.events_per_s", "1/s", Higher, false, Sim, "bulk_ms on sim-reinstall"),
    layer("netsim.shard.events_per_s_t1", "1/s", Higher, false, Sim, "ops_per_s on sim-reinstall"),
    layer("netsim.shard.efficiency", "ratio", Higher, false, Sim, "ops_per_s on sim-reinstall"),
    layer("netsim.events", "count", Lower, true, Sim, "must not move"),
    layer("netsim.sim_minutes", "min", Lower, true, Sim, "must not move"),
    layer("netsim.tier.proxy_hit_ratio", "ratio", Higher, true, Sim, "must not move"),
    layer("pbs.rollout.plans_per_s", "1/s", Higher, false, Sim, "op_p50_us on sim-reinstall"),
    layer("trace.overhead_pct", "%", Lower, false, Any, "none; must stay small"),
];

pub fn workload_index(name: &str) -> Option<usize> {
    WORKLOADS.iter().position(|w| w.name == name)
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The driver's view of the benchmark: the content of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--quiet",
                "--release",
                "--offline",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::Num(DEFAULT_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn well_formed(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_are_within_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(well_formed(name), "{name}");
        }
        let unique: std::collections::HashSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in &PER_LAYER {
            assert!(unit_ok(m.unit), "{}", m.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert!(WORKLOADS.iter().all(|w| family_of(w.name).is_some()));
    }

    #[test]
    fn benchmark_json_carries_the_same_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        assert_eq!(doc.get("run_seconds").unwrap().as_f64(), Some(DEFAULT_SECONDS));
        assert_eq!(doc.get("paths").unwrap().as_arr().unwrap(), [Json::str("benchmark")]);

        let field =
            |item: &Json, key: &str| item.get(key).and_then(Json::as_str).map(str::to_string);
        let listed = doc.get("workloads").unwrap().as_arr().unwrap();
        assert_eq!(listed.len(), WORKLOADS.len());
        for (item, w) in listed.iter().zip(&WORKLOADS) {
            assert_eq!(field(item, "name").as_deref(), Some(w.name));
            assert_eq!(field(item, "why").as_deref(), Some(w.why));
        }
        let listed = doc.get("end_to_end").unwrap().as_arr().unwrap();
        assert_eq!(listed.len(), END_TO_END.len());
        for (item, m) in listed.iter().zip(&END_TO_END) {
            assert_eq!(field(item, "name").as_deref(), Some(m.name));
            assert_eq!(field(item, "unit").as_deref(), Some(m.unit));
            assert_eq!(field(item, "better").as_deref(), Some(m.better.as_str()));
            assert_eq!(item.get("bound").unwrap().as_f64(), Some(m.bound), "{}", m.name);
        }
        let listed = doc.get("per_layer").unwrap().as_arr().unwrap();
        assert_eq!(listed.len(), PER_LAYER.len());
        for (item, m) in listed.iter().zip(&PER_LAYER) {
            assert_eq!(field(item, "name").as_deref(), Some(m.name));
            assert_eq!(field(item, "unit").as_deref(), Some(m.unit));
            assert_eq!(field(item, "better").as_deref(), Some(m.better.as_str()));
            assert_eq!(item.as_obj().unwrap().len(), 3, "{}", m.name);
        }
    }
}
