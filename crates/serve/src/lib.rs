//! rocks-serve: the kickstart CGI behind a real request-serving layer.
//!
//! The paper's kickstart CGI (§6.1) is the one component every node hits
//! on every (re)install, and the large-cluster follow-on work (CERN's
//! 1000-node experience, Brookhaven's scalability study) identifies the
//! install/config server as *the* choke point. This crate puts the
//! reproduction's [`GenerationService`] and SQL report path behind a
//! simulated-time serving frontend and measures it:
//!
//! - **Admission** ([`run_serve`]): one bounded accept queue feeding a
//!   pool of worker shards. Past a high-water mark new arrivals are shed
//!   with a `retry-after` hint (backpressure); the queue's hard capacity
//!   is never exceeded, by construction.
//! - **Priorities**: install traffic (nodes mid-reinstall, blocked on
//!   their kickstart file) outranks report queries, but an aging rule
//!   bounds how many consecutive install dispatches may pass a waiting
//!   report — the low-priority class cannot starve.
//! - **Virtual time**: the whole frontend runs on the rocks-trace
//!   virtual clock. Service times come from a deterministic cost model
//!   (cache hit vs skeleton rebuild, plan-cache hit vs planning), so a
//!   run is a pure function of `(config, workload, seed)` — bit-for-bit
//!   repeatable, and *invariant under how workers are arranged into
//!   shards* when the total pool size is held constant.
//! - **Real responses** ([`RealBackend`]): dispatched requests
//!   drive the actual [`GenerationService::generate_for_request`] and
//!   [`Database::query_ref`] paths, so the frontend's responses are
//!   byte-identical to direct calls (checked by the differential suite)
//!   and the skeleton / plan caches see realistic churn.
//! - **Load generation** ([`Workload`], [`ServePlan`]): open-loop (Poisson arrivals at a
//!   target rate) and closed-loop (N clients with think time) models,
//!   plus seeded fault schedules reusing the chaos-harness vocabulary:
//!   arrival bursts, worker-shard stalls, cache-invalidation storms.
//!
//! Latency histograms live in per-shard [`rocks_trace::Registry`]s and
//! are merged at drain — exactly the worker-pool aggregation path the
//! trace crate was built for. `reproduce serve` turns the result into
//! `BENCH_serve.json`; an SLO floor (≥100k simulated requests/s at
//! 8 shards, p99 under the floor) is CI-gated.
//!
//! [`GenerationService`]: rocks_kickstart::GenerationService
//! [`GenerationService::generate_for_request`]: rocks_kickstart::GenerationService::generate_for_request
//! [`Database::query_ref`]: rocks_sql::Database::query_ref

mod backend;
mod config;
mod frontend;
mod loadgen;

pub use backend::{default_report_queries, BackendResult, ModelBackend, RealBackend, ServeBackend};
pub use config::{CostModel, ServeConfig};
pub use frontend::{fnv64, run_serve, LatencySummary, Outcome, ReqLog, ServeReport};
pub use loadgen::{run_serve_sweep, Arrivals, ServeFault, ServePlan, SweepSummary, Workload};
