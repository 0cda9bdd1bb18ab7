#![warn(missing_docs)]

//! A discrete-event cluster/network simulator: the reproduction's stand-in
//! for the paper's physical testbed.
//!
//! The paper's evaluation (Table I, the §6.3 micro-benchmark, the Gigabit
//! and replication projections) is a *bandwidth-contention* phenomenon:
//! each reinstalling node alternates short download bursts with longer
//! CPU-bound install work, so a single Fast-Ethernet HTTP server
//! comfortably feeds ~8 concurrent reinstalls and degrades gracefully
//! beyond that. This crate models exactly those mechanics:
//!
//! * [`engine`] — virtual time, timer events, and a fluid max-min fair
//!   bandwidth allocator over server uplinks with per-flow demand caps,
//! * [`node`] — the installing node's state machine (POST → DHCP →
//!   kickstart fetch → format → per-RPM fetch/install loop → post-config
//!   → Myrinet driver rebuild → reboot), emitting the eKV progress lines
//!   of Figure 7,
//! * [`config`] — calibration constants derived from the paper's own
//!   numbers (225 MB per node, 223 s download+install, 7–8 MB/s serial
//!   HTTP throughput, 20–30 % Myrinet rebuild penalty),
//! * [`cluster`] — the experiment driver: concurrent reinstallations,
//!   serial-download micro-benchmark, server replication, Gigabit uplink,
//!   power-distribution-unit control, and failure injection,
//! * [`shard`] — the one cabinet simulator both drivers step, and the
//!   federated driver that runs one per cabinet under the caching
//!   [`tier`]s, in conservative windows across worker threads,
//! * [`chaos`] — the seeded chaos harness: randomized fault schedules
//!   over randomized topologies, checked against pluggable invariants
//!   (byte conservation, eventual completion, monotone phases,
//!   fast/reference engine agreement).
//!
//! Virtual time is `u64` microseconds; experiments over 32 nodes and ~160
//! packages each run in well under a millisecond of real time.

pub mod chaos;
mod classes;
pub mod cluster;
pub mod config;
pub mod engine;
mod hash;
pub mod node;
mod queue;
pub mod reinstall;
pub mod rollout_backend;
pub mod shard;
pub mod tier;

pub use chaos::{
    run_chaos, run_plan, standard_invariants, ChaosPlan, ChaosRecord, ChaosReport, Invariant,
    Violation,
};
pub use cluster::{ClusterSim, ReinstallResult};
pub use config::{PackageWork, RetryPolicy, SimConfig, TierConfig};
pub use engine::{micros, seconds, EngineMode, SimError, SimTime};
pub use node::{
    DirectFetch, FetchBackend, FetchStart, FetchTarget, NodeEvent, NodeLogLine, NodeState,
};
pub use reinstall::{mass_reinstall, provision_cluster, MassReinstallReport, ReinstallError};
pub use rollout_backend::NetsimInstallBackend;
pub use shard::FederatedSim;
pub use tier::{FillDone, MissRequest, ProxyCache, TierNet, TierReport};
