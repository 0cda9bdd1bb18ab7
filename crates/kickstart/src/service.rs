//! A shared, thread-safe Kickstart generation service.
//!
//! The paper's CGI script (§6.1) regenerates every Kickstart file from
//! scratch on each HTTP request. That is correct but wasteful: within one
//! mass reinstall, the expensive half of the work — parsing the XML graph
//! and traversing it for an appliance type — produces the *same* skeleton
//! for every node of that appliance; only the final SQL localization pass
//! (hostname, membership, site globals) differs per node.
//!
//! [`GenerationService`] exploits that split. It memoizes each appliance
//! skeleton in one slot per `(graph root, architecture)`, together with
//! the skeleton's localized body rendered once into a template: literal
//! text with holes for the node name, the membership and the public
//! hostname. A request is then one splice of its node's fields into one
//! exactly sized `String`.
//!
//! A slot is keyed on what its skeleton reads. The skeleton comes from
//! [`KickstartGenerator::generate_for_appliance`], which takes no
//! database: of what a request reads from it, the graph root is the slot
//! key and the node name, membership name and public hostname fill the
//! holes, so a database write leaves every slot warm. A skeleton changes
//! only with the profile set, which [`generator_mut`] flushes, or with
//! the distribution: [`notify_dist_rebuilt`] bumps an *epoch* after
//! `rocks-dist` rebuilds the repository (§6.2), and a lookup that finds
//! its slot's epoch stale replaces the slot. Cache behaviour is
//! observable through [`Stats`].
//!
//! [`generate_all`](GenerationService::generate_all) is the mass-reinstall
//! entry point: it shards the cluster's kickstartable nodes across a
//! worker pool of OS threads. Every worker performs read-only SQL lookups
//! against the *shared* `&ClusterDb` concurrently (see
//! `rocks_sql::Database::query_ref`) and splices each node into its
//! appliance's template. Output is byte-identical to the sequential cold
//! path.
//!
//! [`generator_mut`]: GenerationService::generator_mut
//! [`notify_dist_rebuilt`]: GenerationService::notify_dist_rebuilt

use crate::generator::{graph_root, public_hostname, KickstartGenerator};
use crate::kickstart::{Kickstart, KickstartFile, Template};
use crate::Result;
use rocks_db::{ClusterDb, KickstartTarget};
use rocks_rpm::Arch;
use rocks_trace::{Counter, Histogram, Registry, Tracer};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Per-node localize latency buckets, in nanoseconds (1µs .. 100ms).
const LOCALIZE_LATENCY_BOUNDS: &[u64] =
    &[1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000];

/// An appliance skeleton and its localized body as a template.
#[derive(Debug)]
struct Skeleton {
    profile: Arc<KickstartFile>,
    template: Template,
}

/// One cached skeleton, its key, and the dist epoch it was built under.
#[derive(Debug)]
struct Slot {
    root: String,
    arch: Arch,
    dist_epoch: u64,
    skeleton: Arc<Skeleton>,
}

impl Slot {
    fn holds(&self, root: &str, arch: Arch) -> bool {
        self.arch == arch && self.root == root
    }

    fn is_current(&self, dist_epoch: u64) -> bool {
        self.dist_epoch == dist_epoch
    }
}

/// Monotonic counters describing the service's behaviour since creation
/// (or the last [`Stats::reset`]). Each counter is a [`rocks_trace`]
/// registry handle (a clone of an atomic), so workers update them
/// lock-free from inside the pool *and* the same numbers appear in the
/// cluster-wide metrics view — one source of truth per fact.
#[derive(Debug, Clone)]
pub struct Stats {
    /// Requests served from a cached skeleton.
    hits: Counter,
    /// Requests that had to traverse the graph.
    misses: Counter,
    /// Every generate request, hit or miss. Invariant (checked by the
    /// conservation proptests): `requests == hits + misses`.
    requests: Counter,
    /// Cached skeletons evicted because the dist epoch moved on or the
    /// profile set was edited. Database writes evict nothing.
    invalidations: Counter,
    /// Nanoseconds spent resolving IP → appliance through SQL.
    lookup_ns: Counter,
    /// Nanoseconds spent traversing the graph and assembling skeletons
    /// (cache misses only).
    skeleton_ns: Counter,
    /// Nanoseconds spent on per-node localization.
    localize_ns: Counter,
    /// Per-node localize latency distribution (wall ns).
    localize_latency: Histogram,
}

impl Stats {
    fn bound_to(registry: &Registry) -> Self {
        Stats {
            hits: registry.counter("kickstart.cache.hits"),
            misses: registry.counter("kickstart.cache.misses"),
            requests: registry.counter("kickstart.requests"),
            invalidations: registry.counter("kickstart.cache.invalidations"),
            lookup_ns: registry.counter("kickstart.lookup_ns"),
            skeleton_ns: registry.counter("kickstart.skeleton_ns"),
            localize_ns: registry.counter("kickstart.localize_ns"),
            localize_latency: registry
                .histogram("kickstart.localize_latency_ns", LOCALIZE_LATENCY_BOUNDS),
        }
    }

    /// Requests served from cache.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Requests that rebuilt a skeleton.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Every generate request (hits + misses).
    pub fn requests(&self) -> u64 {
        self.requests.get()
    }

    /// Stale skeletons evicted.
    pub fn invalidations(&self) -> u64 {
        self.invalidations.get()
    }

    /// Cumulative SQL-resolution time in nanoseconds.
    pub fn lookup_ns(&self) -> u64 {
        self.lookup_ns.get()
    }

    /// Cumulative graph-traversal/skeleton-assembly time in nanoseconds.
    pub fn skeleton_ns(&self) -> u64 {
        self.skeleton_ns.get()
    }

    /// Cumulative localization time in nanoseconds.
    pub fn localize_ns(&self) -> u64 {
        self.localize_ns.get()
    }

    /// Per-node localize latency distribution (wall ns).
    pub fn localize_latency(&self) -> &Histogram {
        &self.localize_latency
    }

    fn record_hit(&self) {
        self.hits.incr();
        self.requests.incr();
    }

    fn record_miss(&self) {
        self.misses.incr();
        self.requests.incr();
    }

    /// Zero every counter.
    pub fn reset(&self) {
        for counter in [
            &self.hits,
            &self.misses,
            &self.requests,
            &self.invalidations,
            &self.lookup_ns,
            &self.skeleton_ns,
            &self.localize_ns,
        ] {
            counter.reset();
        }
    }

    fn add_ns(counter: &Counter, since: Instant) {
        counter.add(since.elapsed().as_nanos() as u64);
    }

    fn record_localize(&self, since: Instant) {
        let ns = since.elapsed().as_nanos() as u64;
        self.localize_ns.add(ns);
        self.localize_latency.record(ns);
    }
}

impl Default for Stats {
    fn default() -> Self {
        Stats::bound_to(&Registry::new())
    }
}

impl std::fmt::Display for Stats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hits={} misses={} invalidations={} lookup={}us skeleton={}us localize={}us",
            self.hits(),
            self.misses(),
            self.invalidations(),
            self.lookup_ns() / 1_000,
            self.skeleton_ns() / 1_000,
            self.localize_ns() / 1_000,
        )
    }
}

/// One generated profile from [`GenerationService::generate_all`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratedProfile {
    /// Node hostname (`compute-0-0`, ...).
    pub node: String,
    /// The node's private address, as the CGI script would have seen it.
    pub ip: String,
    /// The rendered profile.
    pub kickstart: Kickstart,
}

/// The shared generation service. `&GenerationService` is all a worker
/// thread needs: the profile set is immutable, the skeleton cache sits
/// behind a mutex, and [`Stats`] is atomic.
#[derive(Debug)]
pub struct GenerationService {
    generator: KickstartGenerator,
    /// Skeleton cache: at most one slot per `(root, arch)`. There are a
    /// handful of appliances, so a lookup scans it by borrowed key.
    cache: Mutex<Vec<Slot>>,
    dist_epoch: AtomicU64,
    tracer: Tracer,
    registry: Registry,
    stats: Stats,
}

impl GenerationService {
    /// Wrap a generator in the caching service, telemetry off (the
    /// zero-cost default).
    pub fn new(generator: KickstartGenerator) -> Self {
        GenerationService::with_tracer(generator, Tracer::disabled())
    }

    /// Wrap a generator with an attached [`Tracer`]: generation phases
    /// emit spans and the [`Stats`] counters live in the tracer's
    /// registry (its own registry when the tracer is disabled).
    pub fn with_tracer(generator: KickstartGenerator, tracer: Tracer) -> Self {
        let registry = tracer.registry().cloned().unwrap_or_default();
        let stats = Stats::bound_to(&registry);
        GenerationService {
            generator,
            cache: Mutex::new(Vec::new()),
            dist_epoch: AtomicU64::new(0),
            tracer,
            registry,
            stats,
        }
    }

    /// The attached tracer (disabled unless built via
    /// [`with_tracer`](Self::with_tracer)).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The registry the [`Stats`] counters live in.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The wrapped generator, read-only.
    pub fn generator(&self) -> &KickstartGenerator {
        &self.generator
    }

    /// Mutable access to the generator, for site customization (§6.2.3:
    /// editing the XML profiles). Requires `&mut self` — no worker can be
    /// in flight — and conservatively drops every cached skeleton, since
    /// any profile edit may change any appliance's output.
    pub fn generator_mut(&mut self) -> &mut KickstartGenerator {
        self.invalidate_all();
        &mut self.generator
    }

    /// The cached appliance skeleton for `(root, arch)` — the profile
    /// *before* per-node localization, which is what consistency checks
    /// and install-image computations want. Shares the request cache.
    pub fn appliance_profile(&self, root: &str, arch: Arch) -> Result<Arc<KickstartFile>> {
        Ok(Arc::clone(&self.skeleton(root, arch)?.profile))
    }

    /// Cache and timing counters.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Rocks-dist invalidation hook: call after `rocks-dist` rebuilds the
    /// distribution tree (§6.2). Bumps the epoch so every cached skeleton
    /// — whose `%packages` section may now be stale — misses on next use.
    pub fn notify_dist_rebuilt(&self) {
        self.dist_epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Drop every cached skeleton immediately, counting the evictions.
    pub fn invalidate_all(&self) {
        let mut cache = self.cache.lock().unwrap();
        self.stats.invalidations.add(cache.len() as u64);
        cache.clear();
    }

    /// Number of live (possibly stale) cache entries, for tests/inspection.
    pub fn cached_skeletons(&self) -> usize {
        self.cache.lock().unwrap().len()
    }

    /// Would a request for `(root, arch)` be served from a warm skeleton
    /// right now? A pure probe: no counters move, no stale entries are
    /// evicted, the generator is never invoked. The serving frontend
    /// uses this to price a request before executing it.
    pub fn probe_cached(&self, root: &str, arch: Arch) -> bool {
        let dist_epoch = self.dist_epoch.load(Ordering::Relaxed);
        let cache = self.cache.lock().unwrap();
        cache
            .iter()
            .find(|slot| slot.holds(root, arch))
            .is_some_and(|slot| slot.is_current(dist_epoch))
    }

    /// Cached equivalent of
    /// [`KickstartGenerator::generate_for_request`]: same output, bytes
    /// for bytes, but the graph traversal and the rendering are amortized
    /// across all nodes of an appliance. The public hostname is read per
    /// request, as the cold path reads it.
    pub fn generate_for_request(
        &self,
        db: &ClusterDb,
        requester_ip: &str,
        arch: Arch,
    ) -> Result<Kickstart> {
        let _span = self.tracer.span("kickstart.request");
        let t = Instant::now();
        let node = self.generator.resolve_request(db, requester_ip)?;
        Stats::add_ns(&self.stats.lookup_ns, t);

        let skeleton = self.skeleton(graph_root(&node), arch)?;

        let t = Instant::now();
        let public = public_hostname(db)?;
        let ks = skeleton.template.fill(&node.name, &node.membership, public.as_deref());
        self.stats.record_localize(t);
        Ok(ks)
    }

    /// Fetch or build the cached skeleton for `(root, arch)` under the
    /// current dist epoch.
    fn skeleton(&self, root: &str, arch: Arch) -> Result<Arc<Skeleton>> {
        let dist_epoch = self.dist_epoch.load(Ordering::Relaxed);
        {
            let mut cache = self.cache.lock().unwrap();
            if let Some(at) = cache.iter().position(|slot| slot.holds(root, arch)) {
                if cache[at].is_current(dist_epoch) {
                    self.stats.record_hit();
                    return Ok(Arc::clone(&cache[at].skeleton));
                }
                // Left behind by an older epoch: it can never hit again,
                // and counting it here is what makes invalidation
                // observable through `Stats`.
                cache.swap_remove(at);
                self.stats.invalidations.incr();
            }
        }

        // Miss: build outside the lock so other appliances' workers are
        // not serialized behind this traversal. Two threads may race to
        // build the same skeleton; both produce identical bytes and the
        // second insert is a harmless overwrite.
        self.stats.record_miss();
        let t = Instant::now();
        let profile = self.generator.generate_for_appliance(root, arch)?;
        let built = Arc::new(Skeleton { template: profile.template(), profile: Arc::new(profile) });
        Stats::add_ns(&self.stats.skeleton_ns, t);

        let slot = Slot { root: root.to_string(), arch, dist_epoch, skeleton: Arc::clone(&built) };
        let mut cache = self.cache.lock().unwrap();
        match cache.iter_mut().find(|slot| slot.holds(root, arch)) {
            Some(raced) => *raced = slot,
            None => cache.push(slot),
        }
        Ok(built)
    }

    /// Mass generation: one profile per kickstartable node in the
    /// database (nodes whose appliance has no graph root — switches,
    /// power controllers — are skipped, exactly as they never issue a
    /// kickstart request). Results are sorted by node name and
    /// byte-identical to calling the cold generator per node.
    ///
    /// `threads = 1` degenerates to a sequential loop on the calling
    /// thread; larger values shard the node list across a worker pool of
    /// scoped OS threads, every worker reading the shared `db` through
    /// the lock-free `query_ref` path.
    pub fn generate_all(
        &self,
        db: &ClusterDb,
        arch: Arch,
        threads: usize,
    ) -> Result<Vec<GeneratedProfile>> {
        let _span = self.tracer.span("kickstart.generate_all");
        // Bulk SQL resolution through the database's indexed lookup path:
        // `kickstart_targets` resolves every node's graph root and
        // membership name up front (point lookups against the lazily
        // built hash indexes), so the fan-out loop touches no SQL.
        let resolve_span = self.tracer.span("kickstart.resolve_targets");
        let t = Instant::now();
        let targets = db.kickstart_targets()?;
        let public = public_hostname(db)?;
        Stats::add_ns(&self.stats.lookup_ns, t);
        drop(resolve_span);

        // Resolve each distinct appliance skeleton once through the
        // shared cache, then hand the Arcs straight to the workers: the
        // per-node loop touches no lock at all.
        let skeleton_span = self.tracer.span("kickstart.skeletons");
        let mut skeletons: HashMap<&str, Arc<Skeleton>> = HashMap::new();
        for target in &targets {
            if !skeletons.contains_key(target.root.as_str()) {
                skeletons.insert(&target.root, self.skeleton(&target.root, arch)?);
            }
        }
        drop(skeleton_span);

        let generate_one = |target: &KickstartTarget| -> Result<GeneratedProfile> {
            // Present by construction; logically a cache hit per node.
            let skeleton = &skeletons[target.root.as_str()];
            self.stats.record_hit();
            let t = Instant::now();
            let ks = skeleton.template.fill(&target.name, &target.membership, public.as_deref());
            self.stats.record_localize(t);
            Ok(GeneratedProfile { node: target.name.clone(), ip: target.ip.clone(), kickstart: ks })
        };

        // Span covers the fan-out phase; worker threads themselves only
        // touch atomic counters (spans stay on the calling thread so the
        // trace is deterministic regardless of scheduling).
        let _localize_span = self.tracer.span("kickstart.localize");
        let threads = threads.max(1).min(targets.len().max(1));
        if threads == 1 {
            return targets.iter().map(generate_one).collect();
        }

        // Shard round-robin so a rack of identical compute nodes spreads
        // evenly. Each worker returns (original index, profile) and the
        // final sort restores node-name order deterministically.
        let mut results: Vec<Result<Vec<(usize, GeneratedProfile)>>> = Vec::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            for worker in 0..threads {
                let targets = &targets;
                let generate_one = &generate_one;
                let handle = scope.spawn(move || -> Result<Vec<(usize, GeneratedProfile)>> {
                    let mut local = Vec::new();
                    for (idx, target) in targets.iter().enumerate().skip(worker).step_by(threads) {
                        local.push((idx, generate_one(target)?));
                    }
                    Ok(local)
                });
                handles.push(handle);
            }
            for handle in handles {
                results.push(handle.join().expect("generation worker panicked"));
            }
        });

        let mut indexed = Vec::with_capacity(targets.len());
        for shard in results {
            indexed.extend(shard?);
        }
        indexed.sort_by_key(|(idx, _)| *idx);
        Ok(indexed.into_iter().map(|(_, profile)| profile).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::default_profiles;
    use rocks_db::insert_ethers::{register_frontend, DhcpRequest, InsertEthers};

    fn service() -> GenerationService {
        GenerationService::new(KickstartGenerator::new(
            default_profiles(),
            "10.1.1.1",
            "install/rocks-dist",
        ))
    }

    fn cluster(computes: usize) -> ClusterDb {
        let mut db = ClusterDb::new();
        register_frontend(&mut db, "00:30:c1:d8:ac:80", "frontend-0").unwrap();
        let mut s = InsertEthers::start(&mut db, "Compute", 0).unwrap();
        for i in 0..computes {
            s.observe(&DhcpRequest { mac: format!("00:50:8b:e0:{:02x}:{:02x}", i / 256, i % 256) })
                .unwrap();
        }
        db
    }

    #[test]
    fn cached_request_matches_cold_generator() {
        let db = cluster(2);
        let svc = service();
        for ip in ["10.255.255.254", "10.255.255.253", "10.1.1.1"] {
            let cold = svc.generator().generate_for_request(&db, ip, Arch::I686).unwrap();
            let warm = svc.generate_for_request(&db, ip, Arch::I686).unwrap();
            assert_eq!(cold.render(), warm.render(), "divergence for {ip}");
        }
    }

    #[test]
    fn second_request_hits_cache() {
        let db = cluster(2);
        let svc = service();
        svc.generate_for_request(&db, "10.255.255.254", Arch::I686).unwrap();
        assert_eq!(svc.stats().misses(), 1);
        assert_eq!(svc.stats().hits(), 0);
        svc.generate_for_request(&db, "10.255.255.253", Arch::I686).unwrap();
        assert_eq!(svc.stats().misses(), 1, "same appliance skeleton must be reused");
        assert_eq!(svc.stats().hits(), 1);
    }

    #[test]
    fn db_write_leaves_the_slot_warm() {
        let mut db = cluster(1);
        let svc = service();
        let ip = "10.255.255.254";
        svc.generate_for_request(&db, ip, Arch::I686).unwrap();
        db.set_global("Kickstart_PublicHostname", "meteor.sdsc.edu").unwrap();
        let warm = svc.generate_for_request(&db, ip, Arch::I686).unwrap().render();
        assert!(warm.contains("export PUBLIC_HOSTNAME=meteor.sdsc.edu\n"));
        assert_eq!(
            warm,
            svc.generator().generate_for_request(&db, ip, Arch::I686).unwrap().render()
        );
        assert_eq!(svc.stats().misses(), 1, "a DB write cannot change a skeleton");
        assert_eq!(svc.stats().invalidations(), 0);
    }

    #[test]
    fn dist_rebuild_invalidates() {
        let db = cluster(1);
        let svc = service();
        svc.generate_for_request(&db, "10.255.255.254", Arch::I686).unwrap();
        svc.notify_dist_rebuilt();
        svc.generate_for_request(&db, "10.255.255.254", Arch::I686).unwrap();
        assert_eq!(svc.stats().misses(), 2);
        assert_eq!(svc.stats().invalidations(), 1);
    }

    #[test]
    fn probe_cached_is_pure_and_tracks_warmth() {
        let mut db = cluster(1);
        let svc = service();
        let target =
            db.kickstart_targets().unwrap().into_iter().find(|t| t.name == "compute-0-0").unwrap();

        assert!(!svc.probe_cached(&target.root, Arch::I686), "cold cache");
        assert_eq!(svc.stats().requests(), 0, "probing must not count as a request");

        svc.generate_for_request(&db, &target.ip, Arch::I686).unwrap();
        assert!(svc.probe_cached(&target.root, Arch::I686), "warm after one request");
        let requests_before = svc.stats().requests();
        for _ in 0..10 {
            svc.probe_cached(&target.root, Arch::I686);
        }
        assert_eq!(svc.stats().requests(), requests_before, "probes are free");

        // A database write cannot change a skeleton: the slot stays warm.
        db.set_global("Kickstart_PublicHostname", "meteor.sdsc.edu").unwrap();
        assert!(svc.probe_cached(&target.root, Arch::I686), "a DB write leaves the slot warm");

        // A dist rebuild makes the cached skeleton stale; the probe sees
        // it go cold but — being pure — evicts and counts nothing.
        svc.notify_dist_rebuilt();
        assert!(!svc.probe_cached(&target.root, Arch::I686), "dist epoch cools the probe");
        assert_eq!(svc.stats().invalidations(), 0, "probe must not evict");
        assert_eq!(svc.cached_skeletons(), 1, "stale entry still present until a real lookup");

        svc.generate_for_request(&db, &target.ip, Arch::I686).unwrap();
        assert_eq!(svc.stats().invalidations(), 1, "real lookup still counts the eviction");
        assert!(svc.probe_cached(&target.root, Arch::I686));
    }

    #[test]
    fn two_roots_take_two_slots_and_invalidate_all_counts_both() {
        let db = cluster(2);
        let svc = service();
        svc.generate_for_request(&db, "10.255.255.254", Arch::I686).unwrap();
        svc.generate_for_request(&db, "10.1.1.1", Arch::I686).unwrap(); // frontend appliance
        assert_eq!(svc.cached_skeletons(), 2);
        svc.invalidate_all();
        assert_eq!(svc.cached_skeletons(), 0);
        assert_eq!(svc.stats().invalidations(), 2, "both slots counted");
    }

    #[test]
    fn generate_all_covers_kickstartable_nodes_only() {
        let mut db = cluster(3);
        // A switch: membership 4 maps to an appliance with no graph root.
        db.add_node(&rocks_db::NodeRecord::new(
            99,
            "aa:bb:cc:dd:ee:ff",
            "switch-0-0",
            4,
            0,
            99,
            rocks_db::Ipv4::new(10, 255, 1, 1),
        ))
        .unwrap();
        let svc = service();
        let profiles = svc.generate_all(&db, Arch::I686, 4).unwrap();
        let names: Vec<&str> = profiles.iter().map(|p| p.node.as_str()).collect();
        assert_eq!(names, vec!["compute-0-0", "compute-0-1", "compute-0-2", "frontend-0"]);
    }

    #[test]
    fn requests_equal_hits_plus_misses_and_surface_in_registry() {
        let db = cluster(4);
        let svc = GenerationService::with_tracer(
            KickstartGenerator::new(default_profiles(), "10.1.1.1", "install/rocks-dist"),
            Tracer::ring(1024),
        );
        svc.generate_all(&db, Arch::I686, 2).unwrap();
        svc.generate_for_request(&db, "10.255.255.254", Arch::I686).unwrap();
        let s = svc.stats();
        assert_eq!(s.requests(), s.hits() + s.misses());
        assert!(s.requests() > 0);
        // The tracer's registry sees the same counters: one source of truth.
        let snap = svc.registry().snapshot();
        assert_eq!(snap.counter("kickstart.requests"), s.requests());
        assert_eq!(snap.counter("kickstart.cache.hits"), s.hits());
        assert_eq!(snap.counter("kickstart.cache.misses"), s.misses());
        // And the latency histogram saw one sample per localization
        // (every hit localizes; misses only build skeletons).
        assert_eq!(s.localize_latency().count(), s.hits());
        // Phase spans were captured, balanced.
        let dump = svc.tracer().dump();
        let enters = dump
            .events
            .iter()
            .filter(|e| matches!(e.kind, rocks_trace::EventKind::Enter { .. }))
            .count();
        let exits = dump
            .events
            .iter()
            .filter(|e| matches!(e.kind, rocks_trace::EventKind::Exit { .. }))
            .count();
        assert_eq!(enters, exits);
        assert!(enters >= 4, "generate_all phases + request span expected, got {enters}");
    }

    #[test]
    fn parallel_equals_sequential() {
        let db = cluster(8);
        let svc = service();
        let seq = svc.generate_all(&db, Arch::I686, 1).unwrap();
        let par = service().generate_all(&db, Arch::I686, 4).unwrap();
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(par.iter()) {
            assert_eq!(a.node, b.node);
            assert_eq!(a.kickstart.render(), b.kickstart.render());
        }
    }

    /// Regression: a request served while a transaction is open must not
    /// leave anything of the transaction's rows in the cache. The slot
    /// holds no database contents, so after a rollback the same slot
    /// serves the pre-transaction body.
    #[test]
    fn rollback_leaves_nothing_of_the_transaction_in_the_slot() {
        use rocks_sql::MemVfs;
        let vfs = MemVfs::new();
        let mut db = ClusterDb::open_durable(&vfs).unwrap();
        register_frontend(&mut db, "00:30:c1:d8:ac:80", "frontend-0").unwrap();
        let mut s = InsertEthers::start(&mut db, "Compute", 0).unwrap();
        s.observe(&DhcpRequest { mac: "00:50:8b:e0:00:01".into() }).unwrap();
        let svc = service();
        let ip = "10.255.255.254";
        let cold = |db: &ClusterDb| {
            svc.generator().generate_for_request(db, ip, Arch::I686).unwrap().render()
        };

        let baseline = cold(&db);
        assert_eq!(svc.generate_for_request(&db, ip, Arch::I686).unwrap().render(), baseline);

        db.begin_txn().unwrap();
        db.execute_raw("update nodes set name = 'poisoned-0-0' where name = 'compute-0-0'")
            .unwrap();
        let provisional = svc.generate_for_request(&db, ip, Arch::I686).unwrap().render();
        assert!(provisional.contains("--hostname poisoned-0-0\n"));
        assert_eq!(provisional, cold(&db));
        db.rollback_txn().unwrap();

        let after = svc.generate_for_request(&db, ip, Arch::I686).unwrap().render();
        assert_eq!(after, baseline, "rolled-back rows were served");
        assert_eq!(svc.stats().misses(), 1, "one skeleton served all three requests");
    }
}
