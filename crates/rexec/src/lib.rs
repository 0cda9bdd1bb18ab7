#![warn(missing_docs)]

//! REXEC-like parallel remote execution (paper §4.1).
//!
//! "REXEC provides transparent, secure remote execution of parallel and
//! sequential jobs. It has a sophisticated signal handling system which
//! provides remote forwarding of signals. REXEC also redirects stdin,
//! stdout and stderr from each parallel process and it propagates a local
//! environment including environment variables, user ID, group ID and
//! current working directory."
//!
//! Since the reproduction's "nodes" are in-process, each node runs a
//! [`agent::NodeAgent`] — a real thread with a command interpreter and a
//! per-node process table — and [`exec::Rexec`] provides the client:
//! parallel fan-out, per-node-labelled stdout/stderr multiplexing,
//! environment propagation, and live signal forwarding. This is also the
//! substrate `cluster-fork` and `cluster-kill` (§6.4) run on.

mod agent;
mod exec;

pub use agent::{NodeAgent, Signal};
pub use exec::{ExecEnv, NodeOutput, ParallelResult, Rexec, RunningJob, Stream};
