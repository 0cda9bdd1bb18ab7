//! The serving frontend: bounded admission queue, prioritized dispatch
//! to a sharded worker pool, and drain-time invariant checks — all on a
//! discrete-event virtual clock.
//!
//! # Determinism
//!
//! The engine is a single-threaded event loop over a binary heap keyed
//! by `(virtual time, push sequence)`. Every random draw (arrival gaps,
//! request class, key, retry jitter) happens in event-processing order
//! from one seeded RNG, and service times come from the deterministic
//! [`CostModel`], so a run is a pure function of
//! `(config, workload, backend state)`.
//!
//! Workers are addressed by *global index*; dispatch always picks the
//! lowest free index whose shard is not stalled, and a worker's shard is
//! `index / workers_per_shard`. With the total pool size held constant,
//! re-arranging workers into shards changes only the per-shard
//! *attribution* of completions, never the schedule — so 1×8, 2×4 and
//! 8×1 arrangements produce bit-identical reports (modulo the per-shard
//! breakdown; see [`ServeReport::shard_agnostic`]). The one exception is
//! [`ServeFault::ShardStall`], which addresses a shard by number and so
//! is excluded from the arrangement-invariance property
//! (see [`Workload::stall_free`]).
//!
//! # Admission and priorities
//!
//! A new arrival that finds `high_water` requests already queued is shed
//! with a retry-after hint; the queue therefore never exceeds the hard
//! `queue_cap`. Install traffic outranks reports, but after
//! `report_every` consecutive install dispatches while a report waits,
//! the next dispatch must take the report — the starvation bound the
//! invariant suite asserts.

use crate::backend::ServeBackend;
use crate::config::{CostModel, ServeConfig};
use crate::loadgen::{Arrivals, ServeFault, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rocks_trace::{Histogram, Registry, Tracer};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Latency-histogram upper bounds, µs. Shared by every per-shard
/// registry so merges are exact bucket-wise adds.
pub(crate) const LATENCY_BOUNDS_US: &[u64] = &[
    50, 75, 100, 150, 200, 300, 400, 600, 800, 1_000, 1_500, 2_000, 3_000, 4_000, 6_000, 8_000,
    12_000, 20_000, 50_000, 100_000, 300_000, 1_000_000,
];

/// Queue-depth histogram upper bounds (entries at admission time).
pub(crate) const QUEUE_BOUNDS: &[u64] =
    &[0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1_024, 2_048, 4_096];

/// Terminal state of one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Still queued or in flight (never present after drain).
    Pending,
    /// Served to completion.
    Completed,
    /// Rejected at admission with a retry-after hint.
    Shed,
}

/// The per-request log entry the frontend keeps for every arrival
/// (including shed ones and every retry attempt, each of which is its
/// own entry).
#[derive(Clone, Debug, PartialEq)]
pub struct ReqLog {
    /// Arrival order, 0-based.
    pub id: u64,
    /// Install-class (kickstart) vs report-class (SQL query).
    pub install: bool,
    /// Backend key (target index / query index, reduced modulo pool).
    pub key: usize,
    /// Issuing closed-loop client, if any.
    pub client: Option<usize>,
    /// Retry attempt number (0 = first try).
    pub attempt: u32,
    /// Arrival time, µs.
    pub arrival_us: u64,
    /// Dispatch time, µs (None for shed requests).
    pub dispatch_us: Option<u64>,
    /// Completion time, µs (None for shed requests).
    pub complete_us: Option<u64>,
    /// Terminal state.
    pub outcome: Outcome,
    /// Whether the backend served it from cache.
    pub hit: bool,
    /// FNV-1a of the response body (0 when the backend produced none).
    /// Present even when bodies are not kept, so differential checks
    /// can compare content without the memory cost.
    pub body_fnv: u64,
    /// The response body, when `ServeConfig::keep_bodies` is set.
    pub body: Option<String>,
}

/// Quantile summary of one merged latency histogram.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Samples.
    pub count: u64,
    /// Median, µs (bucket upper bound).
    pub p50_us: u64,
    /// 95th percentile, µs.
    pub p95_us: u64,
    /// 99th percentile, µs.
    pub p99_us: u64,
    /// Exact maximum, µs.
    pub max_us: u64,
}

impl LatencySummary {
    fn from_hist(h: &Histogram) -> LatencySummary {
        LatencySummary {
            count: h.count(),
            p50_us: h.p50().unwrap_or(0),
            p95_us: h.p95().unwrap_or(0),
            p99_us: h.p99().unwrap_or(0),
            max_us: h.max().unwrap_or(0),
        }
    }
}

/// What one serving run produced. All fields are integers so reports
/// compare with `==` in determinism tests.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeReport {
    /// Requests that arrived (every retry is a new arrival).
    pub arrivals: u64,
    /// Arrivals admitted to the queue.
    pub accepted: u64,
    /// Admitted requests served to completion.
    pub completed: u64,
    /// Arrivals rejected at admission.
    pub shed: u64,
    /// Retry attempts scheduled after sheds.
    pub retries: u64,
    /// Completed install-class requests.
    pub install_completed: u64,
    /// Completed report-class requests.
    pub report_completed: u64,
    /// Dispatches that missed the relevant cache.
    pub backend_misses: u64,
    /// Largest queue depth observed at any admission.
    pub queue_peak: u64,
    /// Longest run of install dispatches while a report waited.
    pub max_consecutive_installs: u64,
    /// Virtual time of the last event (full drain), µs.
    pub sim_us: u64,
    /// All-request latency.
    pub latency: LatencySummary,
    /// Install-class latency.
    pub install_latency: LatencySummary,
    /// Report-class latency.
    pub report_latency: LatencySummary,
    /// Completions attributed to each shard.
    pub per_shard_completed: Vec<u64>,
    /// Order-independent FNV fold over every request's terminal record
    /// (id, class, key, outcome, hit, body hash).
    pub fingerprint: u64,
    /// Invariant violations detected at drain. Empty on a correct run.
    pub violations: Vec<String>,
}

impl ServeReport {
    /// Completed requests per simulated second.
    pub fn rps(&self) -> f64 {
        if self.sim_us == 0 {
            0.0
        } else {
            self.completed as f64 * 1e6 / self.sim_us as f64
        }
    }

    /// Fraction of arrivals shed.
    pub fn shed_rate(&self) -> f64 {
        if self.arrivals == 0 {
            0.0
        } else {
            self.shed as f64 / self.arrivals as f64
        }
    }

    /// A copy with the per-shard attribution cleared — the part of the
    /// report that legitimately varies when the same worker pool is
    /// re-arranged into a different shard count.
    pub fn shard_agnostic(&self) -> ServeReport {
        let mut r = self.clone();
        r.per_shard_completed = Vec::new();
        r
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The response-body hash: FNV-1a over little-endian 64-bit words, the
/// tail bytes one at a time. Below 8 bytes it is FNV-1a. Each step (xor,
/// then multiply by an odd prime) is a bijection of the state, so bodies
/// of one length that differ in one word always hash differently.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let words = bytes.chunks_exact(8);
    let tail = words.remainder();
    let h = words.fold(FNV_OFFSET, |h, word| {
        let word = u64::from_le_bytes(word.try_into().expect("chunks_exact yields 8 bytes"));
        (h ^ word).wrapping_mul(FNV_PRIME)
    });
    fnv_bytes(h, tail)
}

fn req_hash(r: &ReqLog) -> u64 {
    let mut h = fnv_bytes(FNV_OFFSET, &r.id.to_le_bytes());
    h = fnv_bytes(
        h,
        &[r.install as u8, matches!(r.outcome, Outcome::Completed) as u8, r.hit as u8],
    );
    h = fnv_bytes(h, &(r.key as u64).to_le_bytes());
    fnv_bytes(h, &r.body_fnv.to_le_bytes())
}

fn cost_of(c: &CostModel, install: bool, hit: bool) -> u64 {
    let us = match (install, hit) {
        (true, true) => c.ks_hit_us,
        (true, false) => c.ks_miss_us,
        (false, true) => c.report_hit_us,
        (false, false) => c.report_plan_us,
    };
    us.max(1)
}

/// Heap events. Variant payloads are all arrangement-invariant (worker
/// indices are global), which is what makes shard re-arrangement a pure
/// relabeling.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// Apply workload fault `i`.
    Fault(usize),
    /// Worker finished (stale if its generation moved on).
    Complete { worker: usize, gen: u64 },
    /// A stalled shard came back; try dispatching.
    Resume,
    /// A shed open-loop request retries with its original class/key.
    Retry { install: bool, key: usize, attempt: u32 },
    /// Next open-loop arrival.
    OpenArrival,
    /// Closed-loop client issues its next request.
    ClientIssue { client: usize },
}

struct Engine<'a> {
    cfg: ServeConfig,
    wl: &'a Workload,
    backend: &'a mut dyn ServeBackend,
    tracer: &'a Tracer,
    rng: StdRng,
    heap: BinaryHeap<Reverse<(u64, u64, Ev)>>,
    seq: u64,
    reqs: Vec<ReqLog>,
    install_q: VecDeque<usize>,
    report_q: VecDeque<usize>,
    busy: Vec<bool>,
    gens: Vec<u64>,
    worker_req: Vec<usize>,
    complete_at: Vec<u64>,
    stalled_until: Vec<u64>,
    arrivals: u64,
    accepted: u64,
    completed: u64,
    shed: u64,
    retries: u64,
    install_completed: u64,
    report_completed: u64,
    misses: u64,
    queue_peak: u64,
    consecutive_installs: u64,
    max_consecutive: u64,
    per_shard_completed: Vec<u64>,
    fingerprint: u64,
    shard_regs: Vec<Registry>,
    qdepth: Histogram,
    sim_us: u64,
    next_tick: u64,
    tick_step: u64,
    ticks_left: u32,
}

impl Engine<'_> {
    fn shard_of(&self, w: usize) -> usize {
        w / self.cfg.workers_per_shard
    }

    fn push(&mut self, t: u64, ev: Ev) {
        self.seq += 1;
        self.heap.push(Reverse((t, self.seq, ev)));
    }

    fn queued(&self) -> usize {
        self.install_q.len() + self.report_q.len()
    }

    fn retry_delay(&self) -> u64 {
        self.cfg.retry_after_us.max(1)
    }

    /// One request arrives. `forced` carries the class/key of a retried
    /// request; fresh arrivals draw both from the RNG (in event order,
    /// so the draw sequence is arrangement-invariant).
    fn arrive(
        &mut self,
        t: u64,
        client: Option<usize>,
        forced: Option<(bool, usize)>,
        attempt: u32,
    ) {
        self.arrivals += 1;
        let (install, key) = match forced {
            Some(fk) => fk,
            None => {
                let report = self.rng.gen_range(0u32..1000) < self.wl.report_permille.min(1000);
                let key = if report {
                    self.rng.gen_range(0..self.backend.n_queries().max(1))
                } else {
                    self.rng.gen_range(0..self.backend.n_targets().max(1))
                };
                (!report, key)
            }
        };
        let id = self.reqs.len() as u64;
        let mut req = ReqLog {
            id,
            install,
            key,
            client,
            attempt,
            arrival_us: t,
            dispatch_us: None,
            complete_us: None,
            outcome: Outcome::Pending,
            hit: false,
            body_fnv: 0,
            body: None,
        };

        if self.queued() >= self.cfg.high_water {
            req.outcome = Outcome::Shed;
            self.shed += 1;
            self.fingerprint = self.fingerprint.wrapping_add(req_hash(&req));
            self.reqs.push(req);
            match client {
                Some(c) => {
                    // Closed-loop caller honors the retry-after hint and
                    // tries again (the issue handler re-checks the horizon).
                    self.retries += 1;
                    let delay = self.retry_delay();
                    self.push(t + delay, Ev::ClientIssue { client: c });
                }
                None => {
                    let retry_shed =
                        matches!(self.wl.arrivals, Arrivals::Open { retry_shed: true, .. });
                    if retry_shed && attempt < 8 {
                        self.retries += 1;
                        let delay = self.retry_delay();
                        let jitter = self.rng.gen_range(0..delay / 4 + 1);
                        self.push(
                            t + delay + jitter,
                            Ev::Retry { install, key, attempt: attempt + 1 },
                        );
                    }
                }
            }
            return;
        }

        self.accepted += 1;
        let idx = self.reqs.len();
        self.reqs.push(req);
        if install {
            self.install_q.push_back(idx);
        } else {
            self.report_q.push_back(idx);
        }
        let depth = self.queued() as u64;
        self.queue_peak = self.queue_peak.max(depth);
        self.qdepth.record(depth);
        self.dispatch(t);
    }

    /// Drain the queues onto free workers: lowest free global index
    /// first, installs ahead of reports except when the aging bound
    /// forces a report through.
    fn dispatch(&mut self, t: u64) {
        loop {
            if self.install_q.is_empty() && self.report_q.is_empty() {
                return;
            }
            let total = self.cfg.total_workers();
            let Some(w) =
                (0..total).find(|&w| !self.busy[w] && self.stalled_until[self.shard_of(w)] <= t)
            else {
                return;
            };
            let take_report = if self.report_q.is_empty() {
                false
            } else if self.install_q.is_empty() {
                true
            } else {
                self.consecutive_installs >= self.cfg.report_every
            };
            let ri = if take_report {
                self.consecutive_installs = 0;
                self.report_q.pop_front().expect("report queue checked non-empty")
            } else {
                let ri = self.install_q.pop_front().expect("install queue checked non-empty");
                if self.report_q.is_empty() {
                    self.consecutive_installs = 0;
                } else {
                    self.consecutive_installs += 1;
                    self.max_consecutive = self.max_consecutive.max(self.consecutive_installs);
                }
                ri
            };
            let (install, key) = (self.reqs[ri].install, self.reqs[ri].key);
            let res = if install { self.backend.install(key) } else { self.backend.report(key) };
            if !res.hit {
                self.misses += 1;
            }
            let cost = cost_of(&self.cfg.costs, install, res.hit);
            let req = &mut self.reqs[ri];
            req.dispatch_us = Some(t);
            req.hit = res.hit;
            req.body_fnv = res.body.as_deref().map_or(0, |b| fnv64(b.as_bytes()));
            if self.cfg.keep_bodies {
                req.body = res.body;
            }
            self.busy[w] = true;
            self.worker_req[w] = ri;
            self.complete_at[w] = t + cost;
            let gen = self.gens[w];
            self.push(t + cost, Ev::Complete { worker: w, gen });
        }
    }

    fn on_complete(&mut self, t: u64, w: usize, gen: u64) {
        if gen != self.gens[w] {
            return; // superseded by a stall reschedule
        }
        self.busy[w] = false;
        let ri = self.worker_req[w];
        let (install, client, lat, hash) = {
            let req = &mut self.reqs[ri];
            req.complete_us = Some(t);
            req.outcome = Outcome::Completed;
            (req.install, req.client, t - req.arrival_us, req_hash(req))
        };
        self.completed += 1;
        if install {
            self.install_completed += 1;
        } else {
            self.report_completed += 1;
        }
        self.fingerprint = self.fingerprint.wrapping_add(hash);
        let s = self.shard_of(w);
        self.per_shard_completed[s] += 1;
        let reg = &self.shard_regs[s];
        reg.histogram("serve.latency_us", LATENCY_BOUNDS_US).record(lat);
        let class_hist =
            if install { "serve.latency_install_us" } else { "serve.latency_report_us" };
        reg.histogram(class_hist, LATENCY_BOUNDS_US).record(lat);
        if let Some(c) = client {
            if let Arrivals::Closed { think_us, .. } = self.wl.arrivals {
                self.push(t + think_us.max(1), Ev::ClientIssue { client: c });
            }
        }
        self.dispatch(t);
    }

    fn on_fault(&mut self, t: u64, i: usize) {
        match self.wl.faults[i] {
            // Bursts act through the arrival-rate multiplier; no event
            // is ever scheduled for them.
            ServeFault::Burst { .. } => {}
            ServeFault::ShardStall { shard, dur_us, .. } => {
                let s = shard % self.cfg.shards;
                self.tracer.mark("serve.fault.stall", s as u64);
                let end = t + dur_us;
                self.stalled_until[s] = self.stalled_until[s].max(end);
                let lo = s * self.cfg.workers_per_shard;
                let hi = lo + self.cfg.workers_per_shard;
                for w in lo..hi {
                    if self.busy[w] {
                        // In-flight work on the frozen shard finishes
                        // late; the old completion event goes stale.
                        self.gens[w] += 1;
                        self.complete_at[w] += dur_us;
                        let gen = self.gens[w];
                        let at = self.complete_at[w];
                        self.push(at, Ev::Complete { worker: w, gen });
                    }
                }
                self.push(end, Ev::Resume);
            }
            ServeFault::CacheStorm { .. } => {
                self.tracer.mark("serve.fault.storm", 0);
                self.backend.invalidate();
            }
        }
    }

    fn finish(mut self) -> (ServeReport, Vec<ReqLog>) {
        let mut violations = Vec::new();
        if self.arrivals != self.accepted + self.shed {
            violations.push(format!(
                "conservation: arrivals {} != accepted {} + shed {}",
                self.arrivals, self.accepted, self.shed
            ));
        }
        let in_flight = self.busy.iter().filter(|b| **b).count();
        if self.queued() + in_flight > 0 {
            violations.push(format!(
                "drain: {} queued and {} in flight after the event heap emptied",
                self.queued(),
                in_flight
            ));
        }
        if self.accepted != self.completed {
            violations.push(format!(
                "conservation: accepted {} != completed {} at drain",
                self.accepted, self.completed
            ));
        }
        if self.queue_peak > self.cfg.queue_cap as u64 {
            violations.push(format!(
                "bounded queue: peak depth {} exceeded cap {}",
                self.queue_peak, self.cfg.queue_cap
            ));
        }
        if self.max_consecutive > self.cfg.report_every {
            violations.push(format!(
                "starvation: {} consecutive installs passed a waiting report (bound {})",
                self.max_consecutive, self.cfg.report_every
            ));
        }

        // Merge per-shard latency registries — the exact bucket-wise
        // path `Registry::merge` provides for same-bounds histograms.
        let merged = Registry::new();
        for r in &self.shard_regs {
            merged.merge(r);
        }
        let latency =
            LatencySummary::from_hist(&merged.histogram("serve.latency_us", LATENCY_BOUNDS_US));
        let install_latency = LatencySummary::from_hist(
            &merged.histogram("serve.latency_install_us", LATENCY_BOUNDS_US),
        );
        let report_latency = LatencySummary::from_hist(
            &merged.histogram("serve.latency_report_us", LATENCY_BOUNDS_US),
        );

        if let Some(reg) = self.tracer.registry() {
            reg.counter("serve.arrivals").add(self.arrivals);
            reg.counter("serve.accepted").add(self.accepted);
            reg.counter("serve.completed").add(self.completed);
            reg.counter("serve.shed").add(self.shed);
            reg.counter("serve.retries").add(self.retries);
            reg.counter("serve.backend_misses").add(self.misses);
            reg.merge(&merged);
        }

        let report = ServeReport {
            arrivals: self.arrivals,
            accepted: self.accepted,
            completed: self.completed,
            shed: self.shed,
            retries: self.retries,
            install_completed: self.install_completed,
            report_completed: self.report_completed,
            backend_misses: self.misses,
            queue_peak: self.queue_peak,
            max_consecutive_installs: self.max_consecutive,
            sim_us: self.sim_us,
            latency,
            install_latency,
            report_latency,
            per_shard_completed: std::mem::take(&mut self.per_shard_completed),
            fingerprint: self.fingerprint,
            violations,
        };
        (report, self.reqs)
    }
}

/// Run one serving episode to full drain and return the report plus the
/// complete request log.
///
/// The tracer's virtual clock is driven with simulation time; counters
/// and merged latency histograms land in its registry when it has one.
pub fn run_serve(
    cfg: &ServeConfig,
    workload: &Workload,
    backend: &mut dyn ServeBackend,
    tracer: &Tracer,
) -> (ServeReport, Vec<ReqLog>) {
    let cfg = cfg.normalized();
    let total = cfg.total_workers();
    let qdepth = tracer
        .registry()
        .map(|r| r.histogram("serve.queue_depth", QUEUE_BOUNDS))
        .unwrap_or_else(|| Registry::new().histogram("serve.queue_depth", QUEUE_BOUNDS));
    let tick_step = (workload.horizon_us / 8).max(1);
    let mut engine = Engine {
        wl: workload,
        backend,
        tracer,
        rng: StdRng::seed_from_u64(workload.seed ^ 0x5e7e_5e7e_5e7e_5e7e),
        heap: BinaryHeap::new(),
        seq: 0,
        reqs: Vec::new(),
        install_q: VecDeque::new(),
        report_q: VecDeque::new(),
        busy: vec![false; total],
        gens: vec![0; total],
        worker_req: vec![0; total],
        complete_at: vec![0; total],
        stalled_until: vec![0; cfg.shards],
        arrivals: 0,
        accepted: 0,
        completed: 0,
        shed: 0,
        retries: 0,
        install_completed: 0,
        report_completed: 0,
        misses: 0,
        queue_peak: 0,
        consecutive_installs: 0,
        max_consecutive: 0,
        per_shard_completed: vec![0; cfg.shards],
        fingerprint: 0,
        shard_regs: (0..cfg.shards).map(|_| Registry::new()).collect(),
        qdepth,
        sim_us: 0,
        next_tick: tick_step,
        tick_step,
        ticks_left: 8,
        cfg,
    };

    let _run = tracer.span("serve.run");
    for (i, f) in workload.faults.iter().enumerate() {
        match f {
            ServeFault::Burst { .. } => {} // handled via rate_multiplier
            ServeFault::ShardStall { at_us, .. } | ServeFault::CacheStorm { at_us } => {
                engine.push(*at_us, Ev::Fault(i));
            }
        }
    }
    match workload.arrivals {
        Arrivals::Open { .. } => engine.push(0, Ev::OpenArrival),
        Arrivals::Closed { clients, .. } => {
            for c in 0..clients.max(1) {
                engine.push(0, Ev::ClientIssue { client: c });
            }
        }
    }

    while let Some(Reverse((t, _, ev))) = engine.heap.pop() {
        engine.sim_us = engine.sim_us.max(t);
        tracer.set_time(t);
        while tracer.records_events() && engine.ticks_left > 0 && t >= engine.next_tick {
            tracer.mark("serve.tick", engine.completed);
            engine.next_tick += engine.tick_step;
            engine.ticks_left -= 1;
        }
        match ev {
            Ev::OpenArrival => {
                if t >= workload.horizon_us {
                    continue;
                }
                engine.arrive(t, None, None, 0);
                if let Arrivals::Open { rate_rps, .. } = workload.arrivals {
                    let lambda_us = (rate_rps * workload.rate_multiplier(t) / 1e6).max(1e-9);
                    let u: f64 = engine.rng.gen();
                    let gap = (-(1.0 - u).ln() / lambda_us).max(1.0) as u64;
                    engine.push(t + gap, Ev::OpenArrival);
                }
            }
            Ev::ClientIssue { client } => {
                if t >= workload.horizon_us {
                    continue;
                }
                engine.arrive(t, Some(client), None, 0);
            }
            Ev::Retry { install, key, attempt } => {
                if t >= workload.horizon_us {
                    continue;
                }
                engine.arrive(t, None, Some((install, key)), attempt);
            }
            Ev::Complete { worker, gen } => engine.on_complete(t, worker, gen),
            Ev::Fault(i) => engine.on_fault(t, i),
            Ev::Resume => engine.dispatch(t),
        }
    }

    engine.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ModelBackend;

    fn closed(seed: u64, clients: usize) -> Workload {
        Workload {
            seed,
            arrivals: Arrivals::Closed { clients, think_us: 200 },
            horizon_us: 30_000,
            report_permille: 200,
            faults: Vec::new(),
        }
    }

    #[test]
    fn closed_loop_run_conserves_and_drains() {
        let cfg = ServeConfig { shards: 2, workers_per_shard: 2, ..ServeConfig::default() };
        let mut backend = ModelBackend::new(32, 2, 4);
        let (report, log) = run_serve(&cfg, &closed(7, 16), &mut backend, &Tracer::disabled());
        assert!(report.violations.is_empty(), "violations: {:?}", report.violations);
        assert!(report.completed > 0);
        assert_eq!(report.arrivals, report.accepted + report.shed);
        assert_eq!(report.accepted, report.completed);
        assert_eq!(report.install_completed + report.report_completed, report.completed);
        assert_eq!(log.len() as u64, report.arrivals);
        assert!(log.iter().all(|r| r.outcome != Outcome::Pending));
        assert_eq!(report.per_shard_completed.iter().sum::<u64>(), report.completed);
    }

    #[test]
    fn identical_runs_are_bit_identical() {
        let cfg = ServeConfig::default();
        let wl = closed(11, 24);
        let (a, la) = run_serve(&cfg, &wl, &mut ModelBackend::new(64, 3, 5), &Tracer::disabled());
        let (b, lb) = run_serve(&cfg, &wl, &mut ModelBackend::new(64, 3, 5), &Tracer::disabled());
        assert_eq!(a, b);
        assert_eq!(la, lb);
    }

    #[test]
    fn shard_arrangement_is_a_pure_relabeling() {
        let wl = Workload {
            seed: 23,
            arrivals: Arrivals::Open { rate_rps: 120_000.0, retry_shed: true },
            horizon_us: 40_000,
            report_permille: 250,
            faults: vec![ServeFault::Burst { at_us: 8_000, dur_us: 6_000, factor: 6.0 }],
        };
        let mut reports = Vec::new();
        for (shards, wps) in [(1usize, 8usize), (2, 4), (8, 1)] {
            let cfg = ServeConfig { shards, workers_per_shard: wps, ..ServeConfig::default() };
            let (r, _) =
                run_serve(&cfg, &wl, &mut ModelBackend::new(64, 2, 4), &Tracer::disabled());
            assert!(r.violations.is_empty(), "violations: {:?}", r.violations);
            assert_eq!(r.per_shard_completed.iter().sum::<u64>(), r.completed);
            reports.push(r.shard_agnostic());
        }
        assert_eq!(reports[0], reports[1], "1x8 vs 2x4 must match");
        assert_eq!(reports[0], reports[2], "1x8 vs 8x1 must match");
    }

    #[test]
    fn overload_sheds_with_bounded_queue() {
        let cfg = ServeConfig {
            shards: 1,
            workers_per_shard: 1,
            queue_cap: 8,
            high_water: 6,
            ..ServeConfig::default()
        };
        let wl = Workload {
            seed: 3,
            arrivals: Arrivals::Open { rate_rps: 300_000.0, retry_shed: false },
            horizon_us: 20_000,
            report_permille: 0,
            faults: Vec::new(),
        };
        let (report, _) =
            run_serve(&cfg, &wl, &mut ModelBackend::new(16, 1, 2), &Tracer::disabled());
        assert!(report.violations.is_empty(), "violations: {:?}", report.violations);
        assert!(report.shed > 0, "1 worker at 300k rps must shed");
        assert!(report.queue_peak <= 6, "peak {} exceeded high water", report.queue_peak);
        assert!(report.shed_rate() > 0.5);
    }

    #[test]
    fn reports_never_starve_under_install_pressure() {
        let cfg = ServeConfig {
            shards: 1,
            workers_per_shard: 2,
            report_every: 4,
            ..ServeConfig::default()
        };
        let wl = Workload {
            seed: 9,
            arrivals: Arrivals::Open { rate_rps: 150_000.0, retry_shed: false },
            horizon_us: 40_000,
            report_permille: 100,
            faults: Vec::new(),
        };
        let (report, log) =
            run_serve(&cfg, &wl, &mut ModelBackend::new(32, 1, 3), &Tracer::disabled());
        assert!(report.violations.is_empty(), "violations: {:?}", report.violations);
        assert!(report.report_completed > 0);
        assert!(report.max_consecutive_installs <= 4);
        // Every completed report actually got through in bounded time.
        assert!(log
            .iter()
            .filter(|r| !r.install && r.outcome == Outcome::Completed)
            .all(|r| r.complete_us.is_some()));
    }

    #[test]
    fn shard_stall_delays_but_conserves() {
        let cfg = ServeConfig { shards: 2, workers_per_shard: 2, ..ServeConfig::default() };
        let wl = Workload {
            seed: 5,
            arrivals: Arrivals::Closed { clients: 12, think_us: 100 },
            horizon_us: 30_000,
            report_permille: 150,
            faults: vec![ServeFault::ShardStall { shard: 0, at_us: 5_000, dur_us: 8_000 }],
        };
        let (stalled, _) =
            run_serve(&cfg, &wl, &mut ModelBackend::new(32, 2, 4), &Tracer::disabled());
        assert!(stalled.violations.is_empty(), "violations: {:?}", stalled.violations);
        let (clean, _) = run_serve(
            &cfg,
            &wl.stall_free(),
            &mut ModelBackend::new(32, 2, 4),
            &Tracer::disabled(),
        );
        assert!(
            stalled.latency.max_us >= clean.latency.max_us,
            "a stall cannot shrink worst-case latency"
        );
    }

    #[test]
    fn cache_storm_forces_rebuilds() {
        let cfg = ServeConfig { shards: 2, workers_per_shard: 2, ..ServeConfig::default() };
        let base = Workload {
            seed: 13,
            arrivals: Arrivals::Closed { clients: 8, think_us: 100 },
            horizon_us: 30_000,
            report_permille: 0,
            faults: Vec::new(),
        };
        let (cold, _) =
            run_serve(&cfg, &base, &mut ModelBackend::new(32, 2, 4), &Tracer::disabled());
        let mut stormy = base.clone();
        stormy.faults = vec![ServeFault::CacheStorm { at_us: 15_000 }];
        let (storm, _) =
            run_serve(&cfg, &stormy, &mut ModelBackend::new(32, 2, 4), &Tracer::disabled());
        assert!(
            storm.backend_misses > cold.backend_misses,
            "storm {} vs cold {}: invalidation must force extra rebuilds",
            storm.backend_misses,
            cold.backend_misses
        );
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv64(b""), FNV_OFFSET);
        assert_eq!(fnv64(b"a"), 0xaf63dc4c8601ec8c);
    }
}
