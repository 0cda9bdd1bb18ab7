//! What one DHCP DISCOVER costs the cluster database.
//!
//! Integrating a rack sends every new node's DISCOVER through
//! `DhcpService::discover`. If each one read the whole `nodes` table,
//! bringing up a cluster would be quadratic in its size; the gate counts
//! the SQL one DISCOVER runs instead of timing it.

use rocks::db::insert_ethers::register_frontend;
use rocks::db::{ClusterDb, Ipv4, NodeRecord};
use rocks::services::DhcpService;
use rocks::trace::Registry;

fn mac(n: u32) -> String {
    format!("aa:00:00:{:02x}:{:02x}:{:02x}", n >> 16, (n >> 8) & 0xff, n & 0xff)
}

fn machine_room(nodes: u32) -> ClusterDb {
    let mut db = ClusterDb::new();
    register_frontend(&mut db, &mac(0xff_ffff), "frontend-0").unwrap();
    let mut ip = Ipv4::ALLOC_TOP;
    for i in 0..nodes {
        let (rack, rank) = ((i / 32) as i64, (i % 32) as i64);
        let name = format!("compute-{rack}-{rank}");
        db.add_node(&NodeRecord::new(i as i64 + 2, &mac(i), &name, 2, rack, rank, ip)).unwrap();
        ip = ip.prev();
    }
    db
}

/// `[rows examined, lookups]` of one DISCOVER for `mac`.
fn discover_cost(
    db: &ClusterDb,
    registry: &Registry,
    dhcp: &mut DhcpService,
    mac: &str,
) -> [u64; 2] {
    let before = registry.snapshot();
    dhcp.discover(db, mac);
    let after = registry.snapshot();
    ["sql.rows.examined", "sql.lookup_eq"].map(|name| after.counter(name) - before.counter(name))
}

#[test]
fn a_discover_costs_one_lookup_whatever_the_cluster_size() {
    let costs = [1_024u32, 16_384].map(|nodes| {
        let mut db = machine_room(nodes);
        let registry = Registry::new();
        db.bind_stats_registry(&registry);
        let mut dhcp = DhcpService::new();
        // The first probe builds the MAC index; what follows is the
        // steady state of a rack booting.
        dhcp.discover(&db, &mac(0));
        let known = discover_cost(&db, &registry, &mut dhcp, &mac(nodes / 2));
        let unknown = discover_cost(&db, &registry, &mut dhcp, &mac(0x10_0000));
        assert_eq!(dhcp.drain_unknown(), [mac(0x10_0000)], "{nodes} nodes");
        [known, unknown]
    });
    assert_eq!(costs[0], costs[1], "[known, unknown] x [rows examined, lookups], by cluster size");
    assert_eq!(costs[0][0][1], 1, "a known MAC is one indexed lookup");
}
