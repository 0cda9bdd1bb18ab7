#![warn(missing_docs)]

//! `rocks` — a Rust reproduction of *NPACI Rocks: Tools and Techniques
//! for Easily Deploying Manageable Linux Clusters* (Papadopoulos, Katz,
//! Bruno; CLUSTER 2001 / CCPE 2002).
//!
//! This umbrella crate re-exports the workspace members as one coherent
//! API. The subsystem layout mirrors the paper:
//!
//! | module | paper section | contents |
//! |---|---|---|
//! | [`core`] | §5–6 | the [`core::Cluster`] facade: bring-up, reinstall, SQL tools, upgrades |
//! | [`kickstart`] | §6.1 | XML node/graph framework → Kickstart generation |
//! | [`dist`] | §6.2 | rocks-dist: distribution building and hierarchies |
//! | [`db`] | §6.4 | the cluster database, insert-ethers, report generators |
//! | [`sql`] | §6.4 | the embedded mini-SQL engine (MySQL stand-in) |
//! | [`ekv`] | §6.3 | eKV install-status streaming over TCP |
//! | [`netsim`] | §6.3 | the discrete-event cluster testbed (Table I) |
//! | [`rpm`] | §5 | RPM model: rpmvercmp, repositories, update streams |
//! | [`pbs`] | §4.1/§5 | PBS-like workload manager + Maui-like backfill |
//! | [`serve`] | §6.1 | high-throughput kickstart serving frontend + load-test harness |
//! | [`rexec`] | §4.1 | REXEC-like parallel remote execution |
//! | [`services`] | §4–5 | DHCP, NIS-like sync, NFS-like home directories |
//! | [`xml`] | §6.1 | the minimal XML parser the framework rides on |
//! | [`trace`] | — | deterministic spans + metrics registry shared by every subsystem |
//!
//! # Quickstart
//!
//! ```
//! use rocks::core::Cluster;
//!
//! // Install a frontend (builds the Rocks distribution, creates the
//! // cluster database, starts services)...
//! let mut cluster = Cluster::install_frontend("00:30:c1:d8:ac:80", 7).unwrap();
//!
//! // ...integrate a rack of compute nodes (the insert-ethers flow)...
//! let macs: Vec<String> = (0..4).map(|i| format!("00:50:8b:e0:44:{i:02x}")).collect();
//! cluster.integrate_rack("Compute", 0, &macs).unwrap();
//!
//! // ...and the cluster is consistent, schedulable, and reinstallable.
//! assert!(cluster.inconsistent_nodes().unwrap().is_empty());
//! let report = cluster.reinstall_all().unwrap();
//! assert!(report.total_minutes < 15.0);
//!
//! // Mass Kickstart generation runs through a shared caching service:
//! // one graph traversal per appliance, one splice per node.
//! let profiles = cluster.generate_kickstarts().unwrap();
//! assert_eq!(profiles.len(), 5);
//! assert!(cluster.kickstart.stats().hits() > 0);
//! ```
//!
//! # One thread
//!
//! No library crate starts a thread, and the types say so: caches,
//! counters and the trace ring live in `Cell`s and `RefCell`s behind
//! `Rc`s, so the handles that own them are not `Sync`, and sharing one
//! between threads does not compile. The four types exist:
//!
//! ```
//! fn on_one_thread<T>() {}
//! on_one_thread::<rocks::core::Cluster>();
//! on_one_thread::<rocks::kickstart::GenerationService>();
//! on_one_thread::<rocks::sql::Database>();
//! on_one_thread::<rocks::trace::Tracer>();
//! ```
//!
//! and each of the blocks below, which name one of them, fails only on
//! its `Sync` bound:
//!
//! ```compile_fail,E0277
//! fn shared_between_threads<T: Sync>() {}
//! shared_between_threads::<rocks::core::Cluster>();
//! ```
//!
//! ```compile_fail,E0277
//! fn shared_between_threads<T: Sync>() {}
//! shared_between_threads::<rocks::kickstart::GenerationService>();
//! ```
//!
//! ```compile_fail,E0277
//! fn shared_between_threads<T: Sync>() {}
//! shared_between_threads::<rocks::sql::Database>();
//! ```
//!
//! ```compile_fail,E0277
//! fn shared_between_threads<T: Sync>() {}
//! shared_between_threads::<rocks::trace::Tracer>();
//! ```

pub use rocks_core as core;
pub use rocks_db as db;
pub use rocks_dist as dist;
pub use rocks_ekv as ekv;
pub use rocks_kickstart as kickstart;
pub use rocks_netsim as netsim;
pub use rocks_pbs as pbs;
pub use rocks_rexec as rexec;
pub use rocks_rpm as rpm;
pub use rocks_serve as serve;
pub use rocks_services as services;
pub use rocks_sql as sql;
pub use rocks_trace as trace;
pub use rocks_xml as xml;

pub use rocks_kickstart::{GeneratedProfile, GenerationService, KickstartGenerator};
