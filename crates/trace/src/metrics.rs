//! Typed metrics: counters, gauges, fixed-bucket histograms, and the
//! registry that names them.
//!
//! Every handle is a cheap `Rc` clone around cells, so subsystems
//! resolve their counters once (at construction) and bump them from the
//! one thread that owns the registry. The registry's map is only
//! borrowed to *create* or *enumerate* metrics, never on the hot path.
//!
//! Determinism rules (see DESIGN.md "Observability"):
//! - counters and histograms only ever record integers derived from
//!   simulation state, so their values are reproducible per seed —
//!   except counters whose name ends in `_ns`, which hold wall-clock
//!   nanoseconds and are excluded from normalized trace dumps;
//! - gauges store exact `f64` bit patterns (no accumulation-order
//!   dependence for idempotent `set`), so byte-conservation tests can
//!   compare them with `==`.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

/// A monotonically increasing integer metric.
///
/// Additions saturate at `u64::MAX` instead of wrapping: a counter that
/// overflows pins at the ceiling rather than silently restarting from a
/// small number (the "counter wrap guard").
#[derive(Clone, Debug, Default)]
pub struct Counter(Rc<Cell<u64>>);

impl Counter {
    /// Add `n`, saturating at `u64::MAX`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get().saturating_add(n));
    }

    /// Add one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.get()
    }

    /// Reset to zero.
    pub fn reset(&self) {
        self.0.set(0);
    }
}

/// A last-write-wins floating-point metric (also supports `add` for
/// accumulating quantities like backoff seconds).
///
/// A `set` followed by `get` round-trips the exact `f64` bit pattern —
/// conservation tests can use exact equality against the simulator's
/// own numbers.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Rc<Cell<f64>>);

impl Gauge {
    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.set(v);
    }

    /// Add `v` to the current value.
    pub fn add(&self, v: f64) {
        self.0.set(self.0.get() + v);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        self.0.get()
    }
}

#[derive(Debug)]
struct HistState {
    /// One slot per upper bound, plus a final overflow slot for samples
    /// above every bound (the "clamp bucket").
    buckets: Vec<Cell<u64>>,
    count: Cell<u64>,
    sum: Cell<u64>,
    min: Cell<u64>,
    max: Cell<u64>,
}

impl HistState {
    /// Fold `n` samples whose sum is `sum` into every scalar; the sum
    /// saturates, the same wrap guard as [`Counter`].
    fn add_scalars(&self, n: u64, sum: u64, min: u64, max: u64) {
        self.count.set(self.count.get() + n);
        self.sum.set(self.sum.get().saturating_add(sum));
        self.min.set(self.min.get().min(min));
        self.max.set(self.max.get().max(max));
    }

    fn add_to_bucket(&self, idx: usize, n: u64) {
        let bucket = &self.buckets[idx];
        bucket.set(bucket.get() + n);
    }
}

/// A fixed-bucket histogram: samples land in the first bucket whose
/// upper bound is `>=` the value, or in the overflow bucket past the
/// last bound. Quantiles are answered from bucket upper bounds, so they
/// are conservative (never under-report) and fully deterministic.
#[derive(Clone, Debug)]
pub struct Histogram {
    bounds: Rc<[u64]>,
    state: Rc<HistState>,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Self {
        let mut sorted: Vec<u64> = bounds.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let state = HistState {
            buckets: vec![Cell::new(0); sorted.len() + 1],
            count: Cell::new(0),
            sum: Cell::new(0),
            min: Cell::new(u64::MAX),
            max: Cell::new(0),
        };
        Histogram { bounds: sorted.into(), state: Rc::new(state) }
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.state.add_to_bucket(self.bounds.partition_point(|b| *b < v), 1);
        self.state.add_scalars(1, v, v, v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.state.count.get()
    }

    /// Sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.state.sum.get()
    }

    /// Smallest recorded sample, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        if self.count() == 0 {
            None
        } else {
            Some(self.state.min.get())
        }
    }

    /// Largest recorded sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        if self.count() == 0 {
            None
        } else {
            Some(self.state.max.get())
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as a bucket upper bound, or the
    /// exact max for samples in the overflow bucket. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, slot) in self.state.buckets.iter().enumerate() {
            seen += slot.get();
            if seen >= target {
                return Some(if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    // Overflow bucket: report the true max rather than a
                    // fictitious "infinity" bound.
                    self.state.max.get()
                });
            }
        }
        Some(self.state.max.get())
    }

    /// Median.
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> Option<u64> {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Samples recorded above the last bound (the clamp bucket).
    pub fn overflow(&self) -> u64 {
        self.state.buckets[self.bounds.len()].get()
    }

    /// The configured (sorted, deduplicated) upper bounds.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    fn bucket_counts(&self) -> Vec<u64> {
        self.state.buckets.iter().map(Cell::get).collect()
    }

    fn absorb(&self, other: &Histogram) {
        // Bucket placement: identical bounds add bucket-wise; mismatched
        // bounds remap each of the other's buckets to the bucket its
        // upper bound falls into here (overflow samples remap at the
        // other's true max). Either way quantiles stay conservative.
        //
        // The scalar aggregates (count, sum, min, max) are carried over
        // *exactly* in both cases: re-recording samples at their bucket
        // bounds would inflate `sum` to a sum of bounds and raise `min`
        // to a bound, silently corrupting merged per-shard latency
        // views. Only bucket *placement* may lose precision, never the
        // scalars.
        if self.bounds == other.bounds {
            for (idx, n) in other.bucket_counts().into_iter().enumerate() {
                self.state.add_to_bucket(idx, n);
            }
        } else {
            for (i, n) in other.bucket_counts().iter().enumerate() {
                if *n == 0 {
                    continue;
                }
                let value = if i < other.bounds.len() {
                    other.bounds[i]
                } else {
                    other.max().unwrap_or(u64::MAX)
                };
                self.state.add_to_bucket(self.bounds.partition_point(|b| *b < value), *n);
            }
        }
        // An empty `other` holds min = u64::MAX and max = 0, which leave
        // both unchanged.
        let theirs = &other.state;
        self.state.add_scalars(other.count(), other.sum(), theirs.min.get(), theirs.max.get());
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// A named collection of metrics. Cloning shares the underlying store;
/// `get-or-create` accessors make wiring idempotent.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    inner: Rc<RefCell<RegistryInner>>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.borrow_mut();
        inner.counters.entry(name.to_string()).or_default().clone()
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.borrow_mut();
        inner.gauges.entry(name.to_string()).or_default().clone()
    }

    /// Get or create the histogram named `name` with the given upper
    /// bounds. If it already exists the existing histogram is returned
    /// (its original bounds win).
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        let mut inner = self.inner.borrow_mut();
        inner.histograms.entry(name.to_string()).or_insert_with(|| Histogram::new(bounds)).clone()
    }

    /// Fold `other`'s metrics into `self`: counters and histograms add,
    /// gauges sum. Used to aggregate per-shard or per-subsystem
    /// registries into one view.
    pub fn merge(&self, other: &Registry) {
        if Rc::ptr_eq(&self.inner, &other.inner) {
            return;
        }
        let snapshot = other.handles();
        for (name, c) in snapshot.0 {
            self.counter(&name).add(c.get());
        }
        for (name, g) in snapshot.1 {
            self.gauge(&name).add(g.get());
        }
        for (name, h) in snapshot.2 {
            self.histogram(&name, h.bounds()).absorb(&h);
        }
    }

    #[allow(clippy::type_complexity)]
    fn handles(&self) -> (Vec<(String, Counter)>, Vec<(String, Gauge)>, Vec<(String, Histogram)>) {
        let inner = self.inner.borrow();
        (
            inner.counters.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
            inner.gauges.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
            inner.histograms.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
        )
    }

    /// A point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let (counters, gauges, histograms) = self.handles();
        Snapshot {
            counters: counters.into_iter().map(|(k, v)| (k, v.get())).collect(),
            gauges: gauges.into_iter().map(|(k, v)| (k, v.get())).collect(),
            histograms: histograms
                .into_iter()
                .map(|(k, v)| {
                    (
                        k,
                        HistogramSnapshot {
                            count: v.count(),
                            sum: v.sum(),
                            min: v.min(),
                            max: v.max(),
                            p50: v.p50(),
                            p95: v.p95(),
                            p99: v.p99(),
                            overflow: v.overflow(),
                        },
                    )
                })
                .collect(),
        }
    }
}

/// Frozen summary of one histogram inside a [`Snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Saturating sum of samples.
    pub sum: u64,
    /// Smallest sample, if any.
    pub min: Option<u64>,
    /// Largest sample, if any.
    pub max: Option<u64>,
    /// Median (bucket upper bound).
    pub p50: Option<u64>,
    /// 95th percentile (bucket upper bound).
    pub p95: Option<u64>,
    /// 99th percentile (bucket upper bound).
    pub p99: Option<u64>,
    /// Samples past the last bound.
    pub overflow: u64,
}

/// A point-in-time copy of a [`Registry`], sorted by metric name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Look up a counter by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Look up a gauge by name (0.0 when absent).
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::default();
        assert_eq!(c.get(), 0);
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 42);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn counter_wrap_guard_saturates() {
        let c = Counter::default();
        c.add(u64::MAX - 1);
        c.add(10);
        assert_eq!(c.get(), u64::MAX, "overflowing counter must pin, not wrap");
        c.incr();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn gauge_round_trips_exact_bits() {
        let g = Gauge::default();
        let v = 1_234.567_890_123_f64;
        g.set(v);
        assert_eq!(g.get().to_bits(), v.to_bits());
        g.add(0.5);
        assert_eq!(g.get(), v + 0.5);
    }

    #[test]
    fn empty_histogram_quantiles_are_none() {
        let h = Histogram::new(&[10, 100, 1000]);
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), None);
        assert_eq!(h.p95(), None);
        assert_eq!(h.p99(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.quantile(0.0), None);
        assert_eq!(h.quantile(1.0), None);
    }

    #[test]
    fn single_sample_histogram() {
        let h = Histogram::new(&[10, 100, 1000]);
        h.record(42);
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 42);
        assert_eq!(h.min(), Some(42));
        assert_eq!(h.max(), Some(42));
        // 42 lands in the (10, 100] bucket; quantiles answer its bound.
        assert_eq!(h.p50(), Some(100));
        assert_eq!(h.p99(), Some(100));
    }

    #[test]
    fn histogram_overflow_clamps_and_reports_true_max() {
        let h = Histogram::new(&[10, 100]);
        h.record(5_000_000);
        h.record(7_000_000);
        assert_eq!(h.overflow(), 2);
        // Overflow-bucket quantiles report the true max, not a bound.
        assert_eq!(h.p50(), Some(7_000_000));
        assert_eq!(h.max(), Some(7_000_000));
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive() {
        let h = Histogram::new(&[10, 100]);
        h.record(10); // lands in bucket 0 (bound 10)
        h.record(11); // lands in bucket 1 (bound 100)
        assert_eq!(h.overflow(), 0);
        assert_eq!(h.quantile(0.5), Some(10));
        assert_eq!(h.quantile(1.0), Some(100));
    }

    #[test]
    fn histogram_quantiles_walk_buckets() {
        let h = Histogram::new(&[1, 2, 4, 8, 16]);
        for v in 1..=16u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.p50(), Some(8));
        assert_eq!(h.p95(), Some(16));
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(16));
    }

    #[test]
    fn registry_get_or_create_shares_handles() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(3);
        assert_eq!(b.get(), 3);
        let snap = r.snapshot();
        assert_eq!(snap.counter("x"), 3);
    }

    #[test]
    fn registry_merge_aggregates_workers() {
        // Per-shard aggregation: two shard registries fold into one
        // view with counters added, gauges summed, histograms
        // bucket-merged.
        let w1 = Registry::new();
        let w2 = Registry::new();
        w1.counter("jobs").add(3);
        w2.counter("jobs").add(4);
        w1.gauge("bytes").set(1.5);
        w2.gauge("bytes").set(2.5);
        let h1 = w1.histogram("lat", &[10, 100]);
        let h2 = w2.histogram("lat", &[10, 100]);
        h1.record(5);
        h2.record(50);
        h2.record(500);

        let total = Registry::new();
        total.merge(&w1);
        total.merge(&w2);
        let snap = total.snapshot();
        assert_eq!(snap.counter("jobs"), 7);
        assert_eq!(snap.gauge("bytes"), 4.0);
        let h = &snap.histograms["lat"];
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 555);
        assert_eq!(h.min, Some(5));
        assert_eq!(h.max, Some(500));
        assert_eq!(h.overflow, 1);
    }

    #[test]
    fn registry_merge_mismatched_bounds_rerecords() {
        let a = Registry::new();
        let b = Registry::new();
        let ha = a.histogram("lat", &[10, 100]);
        let hb = b.histogram("lat", &[7]);
        ha.record(3);
        hb.record(6); // bucket bound 7 in b
        a.merge(&b);
        let merged = a.histogram("lat", &[10, 100]);
        assert_eq!(merged.count(), 2);
        // b's sample re-recorded at its bound (7) into a's 10-bucket.
        assert_eq!(merged.quantile(1.0), Some(10));
    }

    #[test]
    fn mismatched_merge_keeps_exact_scalar_aggregates() {
        // Bucket placement may coarsen across a bounds mismatch, but
        // count/sum/min/max must survive exactly.
        let a = Registry::new();
        let b = Registry::new();
        let ha = a.histogram("lat", &[10, 100]);
        let hb = b.histogram("lat", &[7]);
        ha.record(3);
        hb.record(6);
        hb.record(2);
        a.merge(&b);
        let merged = a.histogram("lat", &[10, 100]);
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.sum(), 11, "true sample sum, not a sum of bucket bounds");
        assert_eq!(merged.min(), Some(2), "true min, not a bucket bound");
        assert_eq!(merged.max(), Some(6));
    }

    #[test]
    fn mismatched_merge_boundary_value_lands_in_shared_bucket() {
        // The other histogram's bound coincides with one of ours: its
        // samples must land in that bucket, not spill past it.
        let a = Registry::new();
        let b = Registry::new();
        let ha = a.histogram("lat", &[10, 100]);
        let hb = b.histogram("lat", &[100]);
        hb.record(50);
        a.merge(&b);
        assert_eq!(ha.count(), 1);
        assert_eq!(ha.overflow(), 0, "bound-100 bucket maps to bound-100 bucket");
        assert_eq!(ha.quantile(1.0), Some(100));
    }

    #[test]
    fn mismatched_merge_overflow_maps_to_overflow() {
        let a = Registry::new();
        let b = Registry::new();
        let ha = a.histogram("lat", &[10, 100]);
        let hb = b.histogram("lat", &[10]);
        hb.record(5_000);
        hb.record(7_000);
        a.merge(&b);
        assert_eq!(ha.overflow(), 2, "samples past every bound stay in overflow");
        assert_eq!(ha.max(), Some(7_000));
        // Overflow quantiles still answer the true max, exactly as if
        // the samples had been recorded here directly.
        assert_eq!(ha.p50(), Some(7_000));
        assert_eq!(ha.sum(), 12_000);
    }

    #[test]
    fn same_bounds_merge_equals_direct_recording() {
        // Per-shard aggregation must be lossless when shards share
        // bounds: merging N shard histograms gives the same snapshot as
        // recording every sample into one histogram.
        let samples: [&[u64]; 3] = [&[5, 40, 900], &[12, 12, 3_000], &[75]];
        let direct = Registry::new();
        let dh = direct.histogram("lat", &[10, 100, 1_000]);
        let total = Registry::new();
        for shard_samples in samples {
            let shard = Registry::new();
            let h = shard.histogram("lat", &[10, 100, 1_000]);
            for s in shard_samples {
                h.record(*s);
                dh.record(*s);
            }
            total.merge(&shard);
        }
        assert_eq!(total.snapshot(), direct.snapshot());
    }

    #[test]
    fn merge_self_is_noop() {
        let r = Registry::new();
        r.counter("x").add(5);
        r.merge(&r.clone());
        assert_eq!(r.counter("x").get(), 5);
    }
}
