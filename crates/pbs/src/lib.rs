#![warn(missing_docs)]

//! A PBS-like workload manager with a Maui-like backfill scheduler.
//!
//! The paper packages "the Portable Batch System (PBS) and the Maui
//! scheduler. PBS is used for its workload management system (starting
//! and monitoring jobs) and Maui is used for its rich scheduling
//! functionality" (§4.1), and the upgrade workflow relies on it: "the
//! production system can be upgraded by submitting a 'reinstall cluster'
//! job to Maui, as not to disturb any running applications" (§5).
//!
//! This crate provides exactly the behaviours the paper exercises:
//!
//! * queues, jobs, and node states ([`PbsServer`]),
//! * FIFO-with-backfill scheduling and head-of-queue reservations
//!   ([`schedule`], [`run_to_completion`]),
//! * the drain-and-reinstall system job ([`run_rollout`]) that
//!   rolls a cluster onto a new distribution without killing running
//!   work; [`RolloutConfig::mass`] is the paper's job as written, a
//!   smaller capacity rolls in waves while the batch system keeps
//!   flowing.
//!
//! Time is a caller-advanced `f64` seconds clock so the workload manager
//! composes with the `rocks-netsim` virtual clock.
//!
//! Everything above is named here, in `lib.rs`; the modules behind it are
//! private.

mod rollout;
mod scheduler;
mod server;

pub use rollout::{
    run_rollout, run_rollout_sweep, standard_rollout_invariants, FixedInstall, InstallBackend,
    InstallLeg, JobArrival, RolloutConfig, RolloutFault, RolloutInvariant, RolloutOutcome,
    RolloutPlan, RolloutRecord, RolloutReport, RolloutView, RolloutViolation, SeededViolation,
};
pub use scheduler::{run_to_completion, schedule};
pub use server::{Job, JobId, JobState, NodeState, PbsServer};

/// Errors from workload-manager operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PbsError {
    /// Job id not found.
    NoSuchJob(u64),
    /// Node name not found.
    NoSuchNode(String),
    /// More nodes requested than the cluster owns.
    TooLarge {
        /// Nodes the job asked for.
        requested: usize,
        /// Nodes the cluster has.
        cluster: usize,
    },
    /// Job is not in a state where the operation applies.
    BadState(&'static str),
    /// A draining node was still occupied past the drain timeout — the
    /// job on it never finished, so the reinstall cannot proceed without
    /// either killing work (which we refuse to do) or operator action.
    DrainTimeout {
        /// The node whose drain never completed.
        node: String,
    },
}

impl std::fmt::Display for PbsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PbsError::NoSuchJob(id) => write!(f, "no such job: {id}"),
            PbsError::NoSuchNode(n) => write!(f, "no such node: {n}"),
            PbsError::TooLarge { requested, cluster } => {
                write!(f, "job requests {requested} nodes but the cluster has {cluster}")
            }
            PbsError::BadState(m) => write!(f, "operation invalid in current state: {m}"),
            PbsError::DrainTimeout { node } => {
                write!(f, "drain timed out: node {node} never came free")
            }
        }
    }
}

impl std::error::Error for PbsError {}

/// Result alias.
pub type Result<T> = std::result::Result<T, PbsError>;
