//! The reports, the next node id and the next free address that a
//! `ClusterDb` carries are a function of its rows, whatever sequence of
//! appends (folded), other writes (stale, rebuilt) and clones (shared)
//! produced them — and keeping them current costs the change, not the
//! table.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rocks_db::insert_ethers::{register_frontend, replace_node};
use rocks_db::reports::GeneratedReports;
use rocks_db::{ClusterDb, DbError, DhcpRequest, InsertEthers, Ipv4, NodeRecord};
use rocks_sql::MemVfs;
use rocks_trace::Registry;

/// The three files written the long way: two listings and the
/// memberships join, formatted here and nowhere else.
fn reports_from_rows(db: &ClusterDb) -> GeneratedReports {
    let mut hosts = String::from(
        "# Generated by insert-ethers from the cluster database.\n\
         # Do not edit: changes are overwritten on the next rebuild.\n\
         127.0.0.1\tlocalhost.localdomain\tlocalhost\n",
    );
    let mut dhcpd_conf = String::from(
        "# Generated by insert-ethers from the cluster database.\n\
         ddns-update-style none;\n\nsubnet 10.0.0.0 netmask 255.0.0.0 {\n\
         \tdefault-lease-time\t\t1200;\n\tmax-lease-time\t\t\t1200;\n\
         \toption domain-name\t\t\"local\";\n\toption next-server\t\t10.1.1.1;\n}\n\n",
    );
    for n in db.nodes().unwrap() {
        hosts += &format!("{}\t{}.local\t{}\n", n.ip, n.name, n.name);
        dhcpd_conf += &format!(
            "host {} {{\n\thardware ethernet {};\n\tfixed-address {};\n\toption host-name \"{}\";\n}}\n",
            n.name, n.mac, n.ip, n.name
        );
    }
    let pbs_nodes =
        db.compute_nodes().unwrap().iter().map(|n| format!("{} np=2\n", n.name)).collect();
    GeneratedReports { hosts, dhcpd_conf, pbs_nodes }
}

/// Allocate the highest free address at or below `top`, avoiding `used`,
/// staying inside the cluster network. This matches insert-ethers'
/// "determines the next *free* IP address" with the descending convention
/// visible in Table II.
///
/// The rule over a plain list: the oracle this file holds
/// `ClusterDb::next_identity` to.
fn alloc_descending(top: Ipv4, used: &[Ipv4]) -> Option<Ipv4> {
    let mut candidate = top;
    loop {
        if !candidate.in_network(Ipv4::NETWORK, Ipv4::PREFIX_LEN) {
            return None;
        }
        if !used.contains(&candidate) && candidate != Ipv4::FRONTEND {
            return Some(candidate);
        }
        candidate = candidate.prev();
    }
}

/// What the database hands out must be what a scan of its rows gives.
fn assert_derived_from_rows(db: &mut ClusterDb, at: &str) {
    let from_rows = reports_from_rows(db);
    assert_eq!(*db.reports().unwrap(), from_rows, "{at}");
    let used: Vec<Ipv4> = db.nodes().unwrap().iter().map(|n| n.ip).collect();
    let (id, ip) = db.next_identity().unwrap();
    assert_eq!(id, db.next_node_id().unwrap(), "{at}");
    assert_eq!(Some(ip), alloc_descending(Ipv4::ALLOC_TOP, &used), "{at}");
}

#[derive(Debug)]
enum Op {
    Observe {
        class: &'static str,
        rack: i64,
        mac: String,
    },
    AddNode(NodeRecord),
    Replace {
        name: String,
        mac: String,
    },
    Raw(String),
    SetGlobal(String),
    Begin,
    Commit,
    Rollback,
    /// Copy the target; later steps write to either.
    Clone,
}

fn mac(n: u32) -> String {
    format!("aa:00:00:00:{:02x}:{:02x}", n >> 8, n & 0xff)
}

fn op(rng: &mut StdRng, step: u32) -> Op {
    let small = |rng: &mut StdRng| rng.gen_range(0i64..4);
    match rng.gen_range(0u8..20) {
        // A MAC space small enough that some requests are re-DHCPs.
        0..=5 => Op::Observe {
            class: ["Compute", "Compute", "Ethernet Switches"][rng.gen_range(0usize..3)],
            rack: small(rng),
            mac: mac(rng.gen_range(0u32..40)),
        },
        // Ids below, at and above the last one; addresses at, above and
        // below the cursor; memberships that are compute, are not, do
        // not exist, or may have been added late; a name that needs
        // escaping.
        6..=8 => Op::AddNode(NodeRecord::new(
            rng.gen_range(-1i64..60),
            &mac(1000 + step),
            &format!("it's-{step}"),
            [1, 2, 4, 99, 100 + rng.gen_range(0i64..step as i64 + 1)][rng.gen_range(0usize..5)],
            small(rng),
            small(rng),
            [Ipv4::FRONTEND, Ipv4::new(10, 255, 255, rng.gen_range(200u8..=255))]
                [(rng.gen_range(0u8..8) > 0) as usize],
        )),
        9 => Op::Replace {
            name: format!("compute-{}-{}", small(rng), small(rng)),
            mac: mac(rng.gen_range(0u32..80)),
        },
        10..=13 => Op::Raw(
            [
                format!("update nodes set name = 'moved-{step}' where rank = {}", small(rng)),
                format!("update nodes set membership = 4 where rack = {}", small(rng)),
                format!("update nodes set ip = '10.255.255.{}' where rank = 3", 250 - step % 50),
                format!("delete from nodes where rank = {}", small(rng)),
                format!("delete from nodes where rack = {}", small(rng)),
                "update memberships set compute = 'yes' where id = 4".to_string(),
                "update memberships set compute = 'no' where id = 4".to_string(),
                // An id is a key: no membership is inserted twice.
                format!(
                    "insert into memberships values ({}, 'Late', 2, 'yes', 'late')",
                    100 + step
                ),
                "select name from nodes".to_string(),
                "insert into nodes values (1)".to_string(),
                "selec nothing".to_string(),
            ][rng.gen_range(0usize..11)]
            .clone(),
        ),
        14 => Op::SetGlobal(format!("v{step}")),
        15 | 16 => Op::Begin,
        17 => Op::Commit,
        18 => Op::Rollback,
        _ => Op::Clone,
    }
}

fn apply(db: &mut ClusterDb, op: &Op) -> Result<(), DbError> {
    match op {
        Op::Observe { class, rack, mac } => InsertEthers::start(db, class, *rack)?
            .observe(&DhcpRequest { mac: mac.clone() })
            .map(drop),
        Op::AddNode(node) => db.add_node(node),
        Op::Replace { name, mac } => replace_node(db, name, mac).map(drop),
        Op::Raw(sql) => db.execute_raw(sql),
        Op::SetGlobal(value) => db.set_global("k", value),
        Op::Begin => db.begin_txn(),
        Op::Commit => db.commit_txn(),
        Op::Rollback => db.rollback_txn(),
        Op::Clone => unreachable!("handled by the driver"),
    }
}

/// Drive one seeded sequence over `first` and the clones taken of it on
/// the way. After every step the written database is checked — half the
/// time through a throw-away clone, so that the original also meets its
/// next write with whatever state (stale, or none at all) the last one
/// left it.
fn drive(first: ClusterDb, seed: u64) -> (ClusterDb, [u32; 3]) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dbs = vec![first];
    let (mut appended, mut failed, mut rolled_back) = (0, 0, 0);
    for step in 0..96 {
        let op = op(&mut rng, step);
        let target = rng.gen_range(0..dbs.len());
        let at = format!("seed {seed} step {step} db {target} {op:?}");
        if let Op::Clone = op {
            let copy = dbs[target].clone();
            // Index 0 stays: it is the one that may carry a journal.
            if dbs.len() == 3 {
                dbs[1 + step as usize % 2] = copy;
            } else {
                dbs.push(copy);
            }
        } else {
            let rows = dbs[target].nodes().unwrap().len();
            let result = apply(&mut dbs[target], &op);
            appended += (dbs[target].nodes().unwrap().len() > rows) as u32;
            failed += result.is_err() as u32;
            rolled_back += (matches!(op, Op::Rollback) && result.is_ok()) as u32;
        }
        if rng.gen::<bool>() {
            assert_derived_from_rows(&mut dbs[target].clone(), &at);
        } else {
            assert_derived_from_rows(&mut dbs[target], &at);
        }
    }
    // A write to one copy never shows in another.
    for (i, db) in dbs.iter_mut().enumerate() {
        assert_derived_from_rows(db, &format!("seed {seed}: db {i} at the end"));
    }
    (dbs.swap_remove(0), [appended, failed, rolled_back])
}

#[test]
fn derived_state_is_a_function_of_the_rows_after_every_step() {
    let mut totals = [0u32; 3];
    for seed in 0..48 {
        let mut plain = ClusterDb::new();
        register_frontend(&mut plain, &mac(9999), "frontend-0").unwrap();
        let (plain, counts) = drive(plain, seed);
        totals.iter_mut().zip(counts).for_each(|(total, n)| *total += n);

        let vfs = MemVfs::new();
        let mut journaled = ClusterDb::open_durable(&vfs).unwrap();
        register_frontend(&mut journaled, &mac(9999), "frontend-0").unwrap();
        let (mut journaled, journaled_counts) = drive(journaled, seed);
        assert_eq!(journaled_counts, counts, "seed {seed}: a journal changed what the calls did");
        assert_eq!(*journaled.reports().unwrap(), reports_from_rows(&plain), "seed {seed}");

        // A reopened store starts without derived state and rebuilds
        // the same texts from what was committed.
        if journaled.in_txn() {
            journaled.commit_txn().unwrap();
        }
        let before = journaled.reports().unwrap().clone();
        drop(journaled);
        let mut reopened = ClusterDb::open_durable(&vfs).unwrap();
        assert_eq!(*reopened.reports().unwrap(), before, "seed {seed}: reopened");
        assert_derived_from_rows(&mut reopened, &format!("seed {seed}: reopened"));
    }
    let [appended, failed, rolled_back] = totals;
    assert!(appended > 800, "only {appended} rows appended");
    assert!(failed > 300, "only {failed} failing calls");
    assert!(rolled_back > 40, "only {rolled_back} rollbacks");
}

/// Frontend plus `nodes` compute nodes, registered the way a site
/// import does: `add_node` on a database nobody has read reports from.
fn machine_room(nodes: u32) -> ClusterDb {
    let mut db = ClusterDb::new();
    register_frontend(&mut db, &mac(0xffff), "frontend-0").unwrap();
    let mut ip = Ipv4::ALLOC_TOP;
    for i in 0..nodes {
        let (rack, rank) = ((i / 32) as i64, (i % 32) as i64);
        let name = format!("compute-{rack}-{rank}");
        db.add_node(&NodeRecord::new(i as i64 + 2, &mac(i), &name, 2, rack, rank, ip)).unwrap();
        ip = ip.prev();
    }
    db
}

/// The gate counts instead of timing: what one `observe` makes the SQL
/// engine do is the same in a room of 1,024 machines and one of 16,384,
/// and reading the reports afterwards makes it do nothing.
#[test]
fn observe_costs_the_change_not_the_table() {
    let counts = [1_024u32, 16_384].map(|nodes| {
        let mut db = machine_room(nodes);
        let registry = Registry::new();
        db.bind_stats_registry(&registry);
        let mut session = InsertEthers::start(&mut db, "Compute", 1_000).unwrap();
        // The first request finds no derived state and builds it.
        session.observe(&DhcpRequest { mac: mac(0x1_0000) }).unwrap().unwrap();
        let before = registry.snapshot().counters;
        let record = session.observe(&DhcpRequest { mac: mac(0x1_0001) }).unwrap().unwrap();
        let after = registry.snapshot().counters;
        assert_eq!(record.id, nodes as i64 + 3);
        assert_eq!(record.ip.0, Ipv4::ALLOC_TOP.0 - nodes - 1);

        let reports = db.reports().unwrap();
        assert!(reports.pbs_nodes.ends_with("compute-1000-1 np=2\n"));
        assert!(reports.dhcpd_conf.contains(&record.mac));
        assert_eq!(registry.snapshot().counters, after, "{nodes} nodes: reports() ran SQL");
        let from_rows = reports_from_rows(&db);
        assert_eq!(*db.reports().unwrap(), from_rows, "{nodes} nodes");

        ["sql.rows.examined", "sql.lookup_eq"].map(|name| after[name] - before[name])
    });
    assert_eq!(counts[0], counts[1], "[rows examined, lookups] of one observe, by room size");
    assert!(counts[0][1] > 0, "the counters are bound: an observe probes the MAC index");
}

#[test]
fn descending_allocation_skips_used() {
    let used = vec![
        Ipv4::new(10, 255, 255, 254),
        Ipv4::new(10, 255, 255, 253),
        Ipv4::new(10, 255, 255, 251),
    ];
    assert_eq!(alloc_descending(Ipv4::ALLOC_TOP, &used), Some(Ipv4::new(10, 255, 255, 252)));
    assert_eq!(alloc_descending(Ipv4::ALLOC_TOP, &[]), Some(Ipv4::ALLOC_TOP));
}

#[test]
fn allocation_never_hands_out_frontend_ip() {
    // Exhaustively walking down to the frontend address would take a
    // while; start just above it instead.
    let top = Ipv4::FRONTEND.next();
    let got = alloc_descending(top, &[top]);
    assert_eq!(got, Some(Ipv4::FRONTEND.prev()));
    assert_ne!(got, Some(Ipv4::FRONTEND));
}

#[test]
fn allocation_exhaustion_returns_none() {
    // A /31-equivalent scenario: everything from top down to the
    // network edge used. Use a tiny custom walk by filling all of
    // 10.0.0.0..=10.0.0.1 and starting at 10.0.0.1.
    let used: Vec<Ipv4> = vec![Ipv4::new(10, 0, 0, 0), Ipv4::new(10, 0, 0, 1)];
    assert_eq!(alloc_descending(Ipv4::new(10, 0, 0, 1), &used), None);
}
