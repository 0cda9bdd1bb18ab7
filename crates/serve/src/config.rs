//! Frontend configuration: pool shape, admission thresholds, and the
//! deterministic service-cost model.

/// Virtual-time service costs, in simulated microseconds.
///
/// The frontend charges each dispatched request a deterministic cost
/// depending on what the backend actually did: a kickstart request
/// served from a cached appliance skeleton costs a localization pass; a
/// miss pays the full graph traversal; a report query costs execution
/// against a cached plan or planning plus execution. The defaults are
/// calibrated from the release-build microbenchmarks of the respective
/// subsystems (skeleton build ≈ milliseconds, localization and indexed
/// execution ≈ tens of microseconds).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// Kickstart request, skeleton cache hit (localize only).
    pub ks_hit_us: u64,
    /// Kickstart request, skeleton cache miss (graph traversal).
    pub ks_miss_us: u64,
    /// Report query, plan-cache hit.
    pub report_hit_us: u64,
    /// Report query, plan-cache miss (parse + plan + execute).
    pub report_plan_us: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel { ks_hit_us: 60, ks_miss_us: 2_500, report_hit_us: 120, report_plan_us: 900 }
    }
}

/// The serving frontend's shape and admission policy.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeConfig {
    /// Worker shards. A shard is the unit that can stall as a whole
    /// (one process / one machine in the deployment analogy).
    pub shards: usize,
    /// Workers per shard; total pool = `shards * workers_per_shard`.
    pub workers_per_shard: usize,
    /// Hard bound on the accept queue (both classes combined). The
    /// bounded-queue invariant asserts the live depth never exceeds it.
    pub queue_cap: usize,
    /// Admission high-water mark: a new arrival finding this many
    /// requests already queued is shed with a retry-after hint.
    /// Clamped to `queue_cap`.
    pub high_water: usize,
    /// The retry-after hint attached to shed responses, µs.
    pub retry_after_us: u64,
    /// Anti-starvation aging: after this many consecutive install
    /// dispatches while a report waits, the next dispatch must take the
    /// report.
    pub report_every: u64,
    /// Keep response bodies in the request log (differential tests);
    /// off for big sweeps. Either way each body is hashed a word at a
    /// time ([`fnv64`](crate::fnv64)) into the fingerprint; off, it is
    /// then dropped.
    pub keep_bodies: bool,
    /// The virtual-time service-cost model.
    pub costs: CostModel,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 8,
            workers_per_shard: 4,
            queue_cap: 1024,
            high_water: 768,
            retry_after_us: 2_000,
            report_every: 8,
            keep_bodies: false,
            costs: CostModel::default(),
        }
    }
}

impl ServeConfig {
    /// Total worker pool size.
    pub fn total_workers(&self) -> usize {
        self.shards.max(1) * self.workers_per_shard.max(1)
    }

    /// A copy with degenerate values clamped into the legal range
    /// (at least one shard/worker, `1 <= high_water <= queue_cap`).
    pub fn normalized(&self) -> ServeConfig {
        let mut c = self.clone();
        c.shards = c.shards.max(1);
        c.workers_per_shard = c.workers_per_shard.max(1);
        c.queue_cap = c.queue_cap.max(1);
        c.high_water = c.high_water.clamp(1, c.queue_cap);
        c.report_every = c.report_every.max(1);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_clamps_degenerate_shapes() {
        let c = ServeConfig {
            shards: 0,
            workers_per_shard: 0,
            queue_cap: 0,
            high_water: 99,
            ..ServeConfig::default()
        }
        .normalized();
        assert_eq!(c.shards, 1);
        assert_eq!(c.workers_per_shard, 1);
        assert_eq!(c.queue_cap, 1);
        assert_eq!(c.high_water, 1, "high water must not exceed the hard cap");
        assert_eq!(c.total_workers(), 1);
    }
}
