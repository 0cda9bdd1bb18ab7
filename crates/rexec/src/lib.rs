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
//! Since the reproduction's "nodes" are in-process, each node is a
//! [`NodeAgent`] — a hostname, a process table and a command interpreter —
//! and [`dispatch`] / [`run`] are the client: fan-out over the nodes in
//! the order given, per-node-labelled stdout/stderr, environment
//! propagation, and signal forwarding through [`RunningJob::signal`].
//! Nothing runs on another thread and `sleep` is a virtual duration, so
//! the same job gives the same output every run. This is also the
//! substrate `cluster-fork` and `cluster-kill` (§6.4) run on.

mod agent;
mod exec;

pub use agent::{NodeAgent, Signal};
pub use exec::{dispatch, run, ExecEnv, NodeOutput, ParallelResult, RunningJob, Stream};
