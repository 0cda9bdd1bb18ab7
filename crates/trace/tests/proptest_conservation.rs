//! Conservation properties: every number the telemetry registry reports
//! must equal the subsystem's own ground truth, under arbitrary seeds.
//!
//! These tests close the loop on the "one source of truth" design: the
//! registry is populated by instrumentation at a different layer than
//! the values it mirrors (engine byte ledgers, node FSM counters, cache
//! outcomes), so any double-count, missed event, or drifted bridge shows
//! up as an exact inequality.

use proptest::prelude::*;
use rocks_db::insert_ethers::{register_frontend, DhcpRequest, InsertEthers};
use rocks_db::ClusterDb;
use rocks_kickstart::{GenerationService, KickstartGenerator};
use rocks_netsim::SimConfig;
use rocks_netsim::{ChaosPlan, ClusterSim};
use rocks_trace::{EventKind, Tracer};
use std::collections::BTreeSet;

fn provision(n: usize) -> ClusterDb {
    let mut db = ClusterDb::new();
    register_frontend(&mut db, "00:30:c1:d8:ac:80", "frontend-0").unwrap();
    let mut session = InsertEthers::start(&mut db, "Compute", 0).unwrap();
    for i in 0..n {
        session.observe(&DhcpRequest { mac: format!("00:50:8b:00:00:{i:02x}") }).unwrap();
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The per-link byte gauges and node-counter totals in the registry
    /// equal the engine's settled-byte ledger and the collected result,
    /// bit for bit, for any seed and cluster size.
    #[test]
    fn netsim_counters_conserve(seed in 0u64..500, n in 1usize..8) {
        let tracer = Tracer::ring_sim(1 << 16);
        let mut sim = ClusterSim::new(SimConfig::paper_testbed(seed).bundled(12), n);
        sim.set_tracer(tracer.clone());
        let result = sim.run_reinstall();
        let snap = tracer.registry().unwrap().snapshot();
        prop_assert_eq!(snap.counter("netsim.fetch.attempts"), result.total_attempts());
        prop_assert_eq!(snap.counter("netsim.failovers"), result.total_failovers());
        prop_assert_eq!(snap.counter("netsim.installs.completed"), result.completed() as u64);
        let requests: u64 = sim.nodes().iter().map(|n| u64::from(n.kickstart_requests)).sum();
        prop_assert_eq!(snap.counter("netsim.kickstart.requests"), requests);
        for (i, &bytes) in sim.link_bytes().iter().enumerate() {
            let gauge = snap.gauge(&format!("netsim.link.bytes.{i}"));
            prop_assert_eq!(gauge.to_bits(), bytes.to_bits());
        }
        let backoff: f64 = result.total_backoff_seconds();
        prop_assert_eq!(snap.gauge("netsim.backoff_seconds").to_bits(), backoff.to_bits());
    }

    /// Cache accounting conserves: on a fresh service, one mass
    /// generation counts each profile as exactly one request — one miss
    /// per distinct graph root, a hit for every other node — and a second
    /// call hits for every profile. The Stats getters are views of the
    /// same registry counters.
    #[test]
    fn kickstart_requests_conserve(n in 1usize..12) {
        let tracer = Tracer::ring(1 << 16);
        let svc = GenerationService::with_tracer(
            KickstartGenerator::new(
                rocks_kickstart::profiles::default_profiles(),
                "10.1.1.1",
                "install/rocks-dist",
            ),
            tracer.clone(),
        );
        let db = provision(n);
        let roots: BTreeSet<String> =
            db.kickstart_targets().unwrap().into_iter().map(|t| t.root).collect();
        let profiles = svc.generate_all(&db, rocks_rpm::Arch::I686, 1).unwrap();
        prop_assert!(!profiles.is_empty());
        let snap = tracer.registry().unwrap().snapshot();
        let hits = snap.counter("kickstart.cache.hits");
        let misses = snap.counter("kickstart.cache.misses");
        prop_assert_eq!(hits + misses, snap.counter("kickstart.requests"));
        prop_assert_eq!(hits, svc.stats().hits());
        prop_assert_eq!(misses, svc.stats().misses());
        prop_assert_eq!(hits + misses, svc.stats().requests());
        prop_assert_eq!(hits + misses, profiles.len() as u64);
        prop_assert_eq!(misses, roots.len() as u64);

        let (hits_before, misses_before) = (svc.stats().hits(), svc.stats().misses());
        let again = svc.generate_all(&db, rocks_rpm::Arch::I686, 1).unwrap();
        prop_assert_eq!(svc.stats().hits() - hits_before, again.len() as u64);
        prop_assert_eq!(svc.stats().misses(), misses_before);
    }

    /// Span events are strictly balanced and properly nested for any
    /// chaos schedule: every enter has exactly one later exit with the
    /// same span id and name, exits come in LIFO order, and a span's
    /// recorded parent is exactly the span open at its enter.
    #[test]
    fn spans_balance_and_nest(seed in 0u64..300) {
        let tracer = Tracer::ring_sim(1 << 16);
        let plan = ChaosPlan::generate(seed);
        let mut sim = plan.build(rocks_netsim::EngineMode::Fast);
        sim.set_tracer(tracer.clone());
        // Chaos schedules may legitimately strand a node; the trace must
        // balance regardless of the run's outcome.
        let _ = sim.try_run_reinstall();
        let dump = tracer.dump();
        let mut stack: Vec<(u64, &'static str, Option<u64>)> = Vec::new();
        for event in &dump.events {
            match event.kind.clone() {
                EventKind::Enter { span, parent, name } => {
                    let expected_parent = stack.last().map(|(id, _, _)| *id);
                    prop_assert_eq!(parent, expected_parent, "span {} parent", span);
                    stack.push((span, name, parent));
                }
                EventKind::Exit { span, name } => {
                    let (open, open_name, _) =
                        stack.pop().expect("exit without a matching enter");
                    prop_assert_eq!(span, open, "exits must be LIFO");
                    prop_assert_eq!(name, open_name);
                }
                EventKind::Mark { .. } => {}
            }
        }
        prop_assert!(stack.is_empty(), "unbalanced spans left open: {:?}", stack);
    }
}
