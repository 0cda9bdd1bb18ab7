//! Simulation calibration, derived from the paper's measurements.
//!
//! Anchors (all from §6.3 and Figure 7):
//! * a compute node transfers ~225 MB and installs 162 packages,
//! * of a ~600 s single-node reinstall, ~223 s is "downloading and
//!   installing RPMs"; "the remainder of the time is spent in rebooting
//!   and post configuration",
//! * a serial download of the full package list sources 7–8 MB/s from the
//!   dual-PIII Fast-Ethernet web server,
//! * rebuilding the Myrinet driver from source costs a 20–30 % penalty,
//!   putting Myrinet nodes at the ~10-minute upper bound,
//! * Gigabit Ethernet supports 7.0–9.5× the concurrent full-speed
//!   reinstalls of Fast Ethernet (paper ref 26).

use rocks_rpm::{synth, Arch, Package};

/// Per-package work: bytes to transfer and bytes to unpack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackageWork {
    /// Package identity, for eKV progress lines.
    pub name: String,
    /// Compressed bytes pulled over HTTP.
    pub transfer_bytes: u64,
    /// Installed bytes (drives CPU-bound install time).
    pub installed_bytes: u64,
}

impl PackageWork {
    /// Derive from a package.
    pub fn from_package(pkg: &Package) -> PackageWork {
        PackageWork {
            name: pkg.ident(),
            transfer_bytes: pkg.size_bytes,
            installed_bytes: pkg.installed_bytes,
        }
    }
}

/// Retry/timeout/backoff policy for the install protocol's HTTP fetches
/// (kickstart file and package downloads).
///
/// The paper's install path has no client-side recovery: a node whose
/// server dies simply holds a zero-rate flow forever. With a policy set,
/// every fetch is guarded by a watchdog deadline; on expiry the node
/// cancels the transfer, rotates to the next candidate install server,
/// waits out a capped exponential backoff (with deterministic jitter from
/// the node's own RNG), and re-requests. A node that exhausts
/// `attempts_per_server` rounds across every server gives up and is
/// reported as [`ReinstallError::AllServersDown`].
///
/// [`ReinstallError::AllServersDown`]: crate::ReinstallError::AllServersDown
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Watchdog deadline per fetch attempt, seconds. Must comfortably
    /// exceed the worst legitimate (congested/degraded) fetch time or
    /// healthy-but-slow transfers will be killed and retried forever.
    pub fetch_timeout_s: f64,
    /// First backoff delay, seconds. Doubles per failed attempt.
    pub backoff_base_s: f64,
    /// Backoff ceiling, seconds (before jitter).
    pub backoff_cap_s: f64,
    /// Jitter fraction applied to each backoff delay (±).
    pub backoff_jitter: f64,
    /// Attempts per target per server before the node gives up; the total
    /// budget per fetch target is `attempts_per_server × n_servers`.
    pub attempts_per_server: u32,
}

impl RetryPolicy {
    /// A sane default for the paper testbed: two-minute fetch deadline,
    /// 5 s → 60 s backoff, four rounds per server.
    pub fn standard() -> RetryPolicy {
        RetryPolicy {
            fetch_timeout_s: 120.0,
            backoff_base_s: 5.0,
            backoff_cap_s: 60.0,
            backoff_jitter: 0.25,
            attempts_per_server: 4,
        }
    }

    /// Total attempt budget per fetch target given the server count.
    pub fn max_attempts(&self, n_servers: usize) -> u32 {
        self.attempts_per_server.saturating_mul(n_servers.max(1) as u32)
    }

    /// Backoff delay (seconds, before jitter) after `attempt` failed
    /// attempts (1-based): capped exponential.
    pub fn backoff_s(&self, attempt: u32) -> f64 {
        let doublings = attempt.saturating_sub(1).min(16);
        (self.backoff_base_s * f64::from(1u32 << doublings)).min(self.backoff_cap_s)
    }

    /// Upper bound on the wall time one fetch target can consume: every
    /// attempt ends by completion or watchdog within `fetch_timeout_s`,
    /// and every inter-attempt wait is at most the jittered cap.
    pub fn worst_target_seconds(&self, n_servers: usize) -> f64 {
        f64::from(self.max_attempts(n_servers))
            * (self.fetch_timeout_s + self.backoff_cap_s * (1.0 + self.backoff_jitter))
    }
}

/// All tunables for one simulation.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of HTTP install servers (replication, §6.3). Nodes are
    /// assigned round-robin.
    pub n_servers: usize,
    /// Aggregate sustained HTTP throughput per server, bytes/s. Fast
    /// Ethernet default: ~8.5 MB/s (the serial micro-benchmark observes
    /// slightly less because a single stream caps lower).
    pub server_capacity_bps: f64,
    /// Per-TCP-stream throughput cap, bytes/s (single-stream HTTP on
    /// Fast Ethernet: ~8 MB/s — this is what the serial micro-benchmark
    /// measures).
    pub per_stream_bps: f64,
    /// CPU-bound install throughput, installed-bytes/s per node.
    pub install_bps: f64,
    /// Phase durations in seconds: (mean, jitter fraction).
    pub post_s: (f64, f64),
    /// DHCP exchange.
    pub dhcp_s: (f64, f64),
    /// Disk format / partition.
    pub format_s: (f64, f64),
    /// Post-configuration scripts.
    pub postconfig_s: (f64, f64),
    /// Myrinet GM driver source rebuild (IA-32 nodes with Myrinet only).
    pub myrinet_s: (f64, f64),
    /// Final reboot back into the installed system.
    pub reboot_s: (f64, f64),
    /// Kickstart CGI request size in bytes (the generated file).
    pub kickstart_bytes: u64,
    /// The package list every node installs.
    pub packages: Vec<PackageWork>,
    /// Whether nodes rebuild the Myrinet driver (the Table I testbed
    /// nodes all had Myrinet).
    pub with_myrinet: bool,
    /// Nodes per cabinet switch. `None` models the paper's flat network
    /// (every node on the frontend's switch); `Some(k)` inserts a
    /// cabinet-switch uplink shared by each group of `k` nodes —
    /// Figure 1's two-tier Ethernet as clusters actually rack it.
    pub cabinet_size: Option<usize>,
    /// Capacity of each cabinet-switch uplink, bytes/s.
    pub cabinet_uplink_bps: f64,
    /// Install-protocol retry policy. `None` reproduces the paper's
    /// behaviour exactly: a fetch with no bandwidth waits forever (and a
    /// permanently dead server stalls the simulation).
    pub retry: Option<RetryPolicy>,
    /// Keep per-node eKV logs. Million-node federated sweeps turn this
    /// off: per-event string formatting would dominate the run.
    pub node_logs: bool,
    /// RNG seed for phase jitter.
    pub seed: u64,
}

/// Aggregate concurrent HTTP throughput of the Fast-Ethernet server:
/// ~88 % of the 12.5 MB/s wire. The paper's Table I data implies the
/// server sustained close to wire speed under concurrent load (32 nodes
/// × 225 MB in 13.7 min ≈ 8.8 MB/s average over the *whole* run,
/// including boot and reboot phases), while a single serial stream
/// measured only 7–8 MB/s.
pub(crate) const FAST_ETHERNET_SERVER_BPS: f64 = 11.0e6;
/// Single HTTP stream on Fast Ethernet (the serial micro-benchmark's
/// 7–8 MB/s).
pub(crate) const FAST_ETHERNET_STREAM_BPS: f64 = 8.0e6;
/// Gigabit Ethernet server uplink: the paper's footnote says GigE yields
/// 7.0–9.5× the concurrent full-speed reinstalls of Fast Ethernet (paper ref 26).
pub(crate) const GIGE_SERVER_BPS: f64 = 72.0e6;

impl SimConfig {
    /// The Table I testbed: one dual-PIII Fast Ethernet server, Myrinet
    /// compute nodes installing the synthetic Red Hat 7.2 compute set.
    pub fn paper_testbed(seed: u64) -> SimConfig {
        let repo = synth::merged_distribution(seed);
        let packages = synth::compute_install_set(&repo, Arch::I686)
            .iter()
            .map(PackageWork::from_package)
            .collect::<Vec<_>>();
        SimConfig {
            n_servers: 1,
            server_capacity_bps: FAST_ETHERNET_SERVER_BPS,
            per_stream_bps: FAST_ETHERNET_STREAM_BPS,
            // 386 MB installed in ~195 s of CPU work → ~2.0 MB/s.
            install_bps: 2.03e6,
            post_s: (70.0, 0.10),
            dhcp_s: (4.0, 0.25),
            format_s: (40.0, 0.10),
            postconfig_s: (60.0, 0.10),
            myrinet_s: (130.0, 0.10),
            reboot_s: (90.0, 0.10),
            kickstart_bytes: 96 * 1024,
            packages,
            with_myrinet: true,
            cabinet_size: None,
            cabinet_uplink_bps: FAST_ETHERNET_SERVER_BPS,
            retry: None,
            node_logs: true,
            seed,
        }
    }

    /// Drop per-node eKV logs (large federated sweeps).
    pub fn without_node_logs(mut self) -> SimConfig {
        self.node_logs = false;
        self
    }

    /// Enable the retrying install protocol.
    pub fn with_retries(mut self, policy: RetryPolicy) -> SimConfig {
        self.retry = Some(policy);
        self
    }

    /// Rack the cluster into cabinets of `k` nodes, each behind an
    /// uplink of `uplink_bps`.
    pub fn with_cabinets(mut self, k: usize, uplink_bps: f64) -> SimConfig {
        assert!(k > 0);
        self.cabinet_size = Some(k);
        self.cabinet_uplink_bps = uplink_bps;
        self
    }

    /// Same testbed with a Gigabit server uplink.
    pub fn gige(seed: u64) -> SimConfig {
        SimConfig {
            server_capacity_bps: GIGE_SERVER_BPS,
            // Streams still terminate at Fast-Ethernet node NICs.
            ..SimConfig::paper_testbed(seed)
        }
    }

    /// Same testbed with `n` load-balanced replica servers.
    pub fn replicated(n: usize, seed: u64) -> SimConfig {
        SimConfig { n_servers: n, ..SimConfig::paper_testbed(seed) }
    }

    /// Collapse the package list into `n` equal bundles with the same
    /// byte totals. The fluid model's results depend on totals and on
    /// download/install alternation, not on the exact package count, so
    /// bundling makes large concurrency sweeps tractable (the per-event
    /// cost is quadratic in concurrent flows).
    pub fn bundled(mut self, n: usize) -> SimConfig {
        assert!(n > 0);
        let total_transfer: u64 = self.packages.iter().map(|p| p.transfer_bytes).sum();
        let total_installed: u64 = self.packages.iter().map(|p| p.installed_bytes).sum();
        self.packages = (0..n)
            .map(|i| PackageWork {
                name: format!("bundle-{i}"),
                transfer_bytes: total_transfer / n as u64,
                installed_bytes: total_installed / n as u64,
            })
            .collect();
        self
    }

    /// Total bytes one node transfers (kickstart + packages).
    pub fn node_transfer_bytes(&self) -> u64 {
        self.kickstart_bytes + self.packages.iter().map(|p| p.transfer_bytes).sum::<u64>()
    }

    /// Total CPU seconds one node spends unpacking.
    pub fn node_install_seconds(&self) -> f64 {
        self.packages.iter().map(|p| p.installed_bytes).sum::<u64>() as f64 / self.install_bps
    }
}

/// Topology of the multi-tier distribution fabric (§6.2's vendor →
/// NPACI → campus → department hierarchy, mapped onto a cluster as
/// root → campus distribution servers → cabinet caching proxies →
/// nodes).
///
/// Each cabinet of [`cabinet_size`](TierConfig::cabinet_size) nodes
/// sits behind a caching HTTP proxy; each group of
/// [`cabinets_per_campus`](TierConfig::cabinets_per_campus) cabinets
/// shares a campus distribution server (itself a cache fed from the
/// root). A cacheable package byte-range therefore crosses each uplink
/// exactly once; only the per-node kickstart CGI files cross the
/// cabinet uplinks once per request (they originate at the campus
/// frontend, which generates them).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierConfig {
    /// Nodes per cabinet — also the shard granularity of the federated
    /// engine (one sub-simulator per cabinet).
    pub cabinet_size: usize,
    /// Cabinets per campus distribution server.
    pub cabinets_per_campus: usize,
    /// Aggregate serve capacity of one cabinet proxy toward its nodes,
    /// bytes/s.
    pub proxy_serve_bps: f64,
    /// Capacity of the uplink one cabinet fill consumes from its campus
    /// server, bytes/s (a demand cap on the campus serve link).
    pub cabinet_uplink_bps: f64,
    /// Aggregate serve capacity of one campus distribution server
    /// toward its cabinets, bytes/s.
    pub campus_serve_bps: f64,
    /// Capacity of the uplink one campus fill consumes from the root,
    /// bytes/s (a demand cap on the root link).
    pub campus_uplink_bps: f64,
    /// Root (vendor/master mirror) serve capacity, bytes/s.
    pub root_bps: f64,
    /// Store-and-forward latency of a tier hop, seconds: the delay
    /// between a fill completing at a proxy and the proxy serving it
    /// downstream. This is also the conservative sync window (lookahead)
    /// of the federated engine, so it must be positive.
    pub fill_latency_s: f64,
}

impl TierConfig {
    /// A plausible hierarchy for commodity racks: 64-node cabinets on
    /// GigE proxies fed over Fast-Ethernet-class uplinks, 64 cabinets
    /// per campus server, 250 ms store-and-forward per hop.
    pub fn standard() -> TierConfig {
        TierConfig {
            cabinet_size: 64,
            cabinets_per_campus: 64,
            proxy_serve_bps: GIGE_SERVER_BPS,
            cabinet_uplink_bps: FAST_ETHERNET_SERVER_BPS,
            campus_serve_bps: 4.0 * GIGE_SERVER_BPS,
            campus_uplink_bps: GIGE_SERVER_BPS,
            root_bps: 10.0 * GIGE_SERVER_BPS,
            fill_latency_s: 0.25,
        }
    }

    /// Number of cabinets needed for `n` nodes (last cabinet may be
    /// partial).
    pub fn n_cabinets(&self, n_nodes: usize) -> usize {
        n_nodes.div_ceil(self.cabinet_size)
    }

    /// Number of campus servers needed for `n` nodes.
    pub fn n_campuses(&self, n_nodes: usize) -> usize {
        self.n_cabinets(n_nodes).div_ceil(self.cabinets_per_campus)
    }

    /// Campus index of a cabinet.
    pub fn campus_of(&self, cabinet: usize) -> usize {
        cabinet / self.cabinets_per_campus
    }
}

#[cfg(test)]
mod tier_tests {
    use super::*;

    #[test]
    fn standard_tiers_partition_a_million_nodes() {
        let t = TierConfig::standard();
        assert!(t.fill_latency_s > 0.0);
        assert_eq!(t.n_cabinets(1_048_576), 16_384);
        assert_eq!(t.n_campuses(1_048_576), 256);
        assert_eq!(t.campus_of(0), 0);
        assert_eq!(t.campus_of(63), 0);
        assert_eq!(t.campus_of(64), 1);
        // A partial last cabinet still gets its own shard.
        assert_eq!(t.n_cabinets(65), 2);
        assert_eq!(t.n_campuses(65), 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_matches_paper_magnitudes() {
        let cfg = SimConfig::paper_testbed(1);
        assert_eq!(cfg.packages.len(), synth::COMPUTE_PACKAGE_COUNT);
        let mb = cfg.node_transfer_bytes() as f64 / (1024.0 * 1024.0);
        assert!((220.0..232.0).contains(&mb), "transfer {mb} MB");
        // Download (at stream speed) + install ≈ 223 s.
        let download = cfg.node_transfer_bytes() as f64 / cfg.per_stream_bps;
        let total = download + cfg.node_install_seconds();
        assert!((205.0..245.0).contains(&total), "download+install {total}s");
    }

    #[test]
    fn fixed_phases_sum_to_paper_remainder() {
        // §6.3: ~600 s total, 223 s of it download+install → remainder
        // ≈ 377 s (Myrinet rebuild included in our breakdown).
        let cfg = SimConfig::paper_testbed(1);
        let fixed = cfg.post_s.0
            + cfg.dhcp_s.0
            + cfg.format_s.0
            + cfg.postconfig_s.0
            + cfg.myrinet_s.0
            + cfg.reboot_s.0;
        assert!((360.0..420.0).contains(&fixed), "fixed {fixed}s");
    }

    #[test]
    fn myrinet_penalty_is_20_to_30_percent() {
        let cfg = SimConfig::paper_testbed(1);
        let without = cfg.post_s.0
            + cfg.dhcp_s.0
            + cfg.format_s.0
            + cfg.postconfig_s.0
            + cfg.reboot_s.0
            + 223.0;
        let penalty = cfg.myrinet_s.0 / without;
        assert!((0.20..0.32).contains(&penalty), "penalty {penalty}");
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let p = RetryPolicy::standard();
        assert_eq!(p.backoff_s(1), p.backoff_base_s);
        assert_eq!(p.backoff_s(2), p.backoff_base_s * 2.0);
        assert_eq!(p.backoff_s(3), p.backoff_base_s * 4.0);
        assert_eq!(p.backoff_s(30), p.backoff_cap_s);
        // Monotone non-decreasing.
        for a in 1..20 {
            assert!(p.backoff_s(a + 1) >= p.backoff_s(a));
        }
        assert_eq!(p.max_attempts(3), p.attempts_per_server * 3);
    }

    #[test]
    fn gige_is_roughly_7x_fast_ethernet() {
        let ratio = GIGE_SERVER_BPS / FAST_ETHERNET_SERVER_BPS;
        assert!((6.0..9.5).contains(&ratio), "ratio {ratio}");
    }
}
