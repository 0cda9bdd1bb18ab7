#![warn(missing_docs)]

//! `rocks-core` — the NPACI Rocks cluster facade.
//!
//! This crate is the downstream-user API of the reproduction: one
//! [`Cluster`] value owns the cluster database (§6.4), the XML-driven
//! Kickstart generator (§6.1), the rocks-dist distribution (§6.2), the
//! frontend services (DHCP/NIS/NFS, §4–5), per-node execution agents, and
//! the simulated hardware — and exposes the workflows the paper is about:
//!
//! * **bring-up**: install a frontend, then integrate compute nodes with
//!   the insert-ethers flow ([`Cluster::integrate_rack`]),
//! * **reinstallation as the management primitive** (§6.3):
//!   [`Cluster::shoot_nodes`] / [`Cluster::reinstall_all`],
//! * **SQL-directed administration** (§6.4): [`tools::cluster_fork`] /
//!   [`tools::cluster_kill`] with raw `--query` strings,
//! * **continuous upgrades** (§5): [`upgrade::upgrade_cluster`] — mirror
//!   vendor updates, rebuild the distribution, validate on a test node,
//!   then submit the "reinstall cluster" job — one
//!   [`rocks_pbs::run_rollout`] in [`rocks_pbs::RolloutConfig::mass`] —
//!   so the production cluster rolls through PBS without disturbing
//!   running jobs,
//! * **the consistency ablation** ([`consistency`]): reinstall versus
//!   cfengine-style verify-and-repair.

pub mod cluster;
pub mod consistency;
pub mod tools;
pub mod upgrade;

pub use cluster::{Cluster, NodeImage, ReinstallReport};
pub use consistency::{Drift, DriftKind, RepairOutcome, Strategy, VerifyModel};
pub use tools::{cluster_fork, cluster_kill, cluster_status};
pub use upgrade::{upgrade_cluster, UpgradeReport};

/// Errors surfaced by cluster workflows.
#[derive(Debug)]
pub enum RocksError {
    /// Cluster database failure.
    Db(rocks_db::DbError),
    /// Raw SQL failure from a status or --query call.
    Sql(rocks_sql::SqlError),
    /// Kickstart generation failure.
    Kickstart(rocks_kickstart::KsError),
    /// Distribution build failure.
    Dist(rocks_dist::DistError),
    /// Batch-system failure.
    Pbs(rocks_pbs::PbsError),
    /// A named node does not exist.
    NoSuchNode(String),
    /// Upgrade validation failed on the test node.
    ValidationFailed(String),
    /// The reinstall simulation could not finish (e.g. it stalled with
    /// flows active and no bandwidth).
    Simulation(String),
}

impl std::fmt::Display for RocksError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RocksError::Db(e) => write!(f, "database: {e}"),
            RocksError::Sql(e) => write!(f, "sql: {e}"),
            RocksError::Kickstart(e) => write!(f, "kickstart: {e}"),
            RocksError::Dist(e) => write!(f, "distribution: {e}"),
            RocksError::Pbs(e) => write!(f, "batch system: {e}"),
            RocksError::NoSuchNode(n) => write!(f, "no such node: {n}"),
            RocksError::ValidationFailed(m) => write!(f, "upgrade validation failed: {m}"),
            RocksError::Simulation(m) => write!(f, "simulation: {m}"),
        }
    }
}

impl std::error::Error for RocksError {}

impl From<rocks_netsim::SimError> for RocksError {
    fn from(e: rocks_netsim::SimError) -> Self {
        RocksError::Simulation(e.to_string())
    }
}

impl From<rocks_netsim::ReinstallError> for RocksError {
    fn from(e: rocks_netsim::ReinstallError) -> Self {
        match e {
            rocks_netsim::ReinstallError::Generation(k) => RocksError::Kickstart(k),
            other => RocksError::Simulation(other.to_string()),
        }
    }
}

impl From<rocks_db::DbError> for RocksError {
    fn from(e: rocks_db::DbError) -> Self {
        RocksError::Db(e)
    }
}

impl From<rocks_sql::SqlError> for RocksError {
    fn from(e: rocks_sql::SqlError) -> Self {
        RocksError::Sql(e)
    }
}

impl From<rocks_kickstart::KsError> for RocksError {
    fn from(e: rocks_kickstart::KsError) -> Self {
        RocksError::Kickstart(e)
    }
}

impl From<rocks_dist::DistError> for RocksError {
    fn from(e: rocks_dist::DistError) -> Self {
        RocksError::Dist(e)
    }
}

impl From<rocks_pbs::PbsError> for RocksError {
    fn from(e: rocks_pbs::PbsError) -> Self {
        RocksError::Pbs(e)
    }
}

/// Result alias.
pub type Result<T> = std::result::Result<T, RocksError>;
