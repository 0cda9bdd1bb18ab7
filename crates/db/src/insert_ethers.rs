//! `insert-ethers`: integrating new hardware into the cluster database.
//!
//! Paper §6.4: "Insert-ethers monitors syslog messages for DHCP requests
//! from new hosts and when found, generates a hostname, determines the
//! next free IP address, binds the hostname and IP address to its Ethernet
//! MAC address, and inserts this information into the database.
//! Insert-ethers then rebuilds service-specific configuration files by
//! running queries against the database, and restarting the respective
//! services." Nodes are booted *sequentially* so rack/rank follow
//! physical position.

use crate::ip::Ipv4;
use crate::schema::NodeRecord;
use crate::{ClusterDb, DbError, Result};

/// One observed DHCP DISCOVER from an unknown host, as insert-ethers sees
/// it via syslog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DhcpRequest {
    /// The requesting NIC's MAC address.
    pub mac: String,
}

/// A running insert-ethers session: an appliance class (chosen by the
/// administrator in the real curses UI) plus the cabinet being populated.
#[derive(Debug)]
pub struct InsertEthers<'a> {
    db: &'a mut ClusterDb,
    membership_id: i64,
    rack: i64,
    /// Rank for the next node; advances as nodes are integrated.
    next_rank: i64,
}

impl<'a> InsertEthers<'a> {
    /// Begin integrating nodes of membership `membership_name` into
    /// cabinet `rack`. Rank continues from the database's current maximum
    /// so a second session appends rather than collides.
    pub fn start(db: &'a mut ClusterDb, membership_name: &str, rack: i64) -> Result<Self> {
        let membership = db.membership_by_name(membership_name)?;
        let next_rank = db.max_rank(membership.id, rack)?.map_or(0, |r| r + 1);
        Ok(InsertEthers { db, membership_id: membership.id, rack, next_rank })
    }

    /// Handle one DHCP request: name the node, allocate an address,
    /// insert the row, bring [`ClusterDb::reports`] up to date. Returns
    /// the new record.
    ///
    /// A request from an already-known MAC is *not* an error — booting an
    /// installed node re-DHCPs — it is simply ignored (returns `Ok(None)`).
    pub fn observe(&mut self, request: &DhcpRequest) -> Result<Option<NodeRecord>> {
        // Indexed read-only probe: a re-DHCPing installed node must not
        // bump the revision (and so must not stale the derived reports).
        if self.db.node_by_mac(&request.mac)?.is_some() {
            return Ok(None);
        }

        let membership = self.db.membership(self.membership_id)?;
        let (id, ip) = self.db.next_identity()?;
        let rank = self.next_rank;
        let name = format!("{}-{}-{}", membership.basename, self.rack, rank);

        let record = NodeRecord {
            id,
            mac: request.mac.clone(),
            name,
            membership: membership.id,
            rack: self.rack,
            rank,
            ip,
            comment: Some(format!("{} node", membership.name)),
        };
        self.db.add_node(&record)?;
        self.next_rank += 1;

        // "Rebuilds service-specific configuration files": the append
        // above extended them, so this only confirms they are current.
        self.db.reports()?;
        Ok(Some(record))
    }

    /// Integrate a whole sequence of boot events (the sequential cabinet
    /// walk the paper describes). Returns the records created.
    pub fn observe_all(&mut self, requests: &[DhcpRequest]) -> Result<Vec<NodeRecord>> {
        let mut out = Vec::new();
        for request in requests {
            if let Some(record) = self.observe(request)? {
                out.push(record);
            }
        }
        Ok(out)
    }
}

/// Replace failed hardware while keeping the node's identity (§3.1:
/// clusters "evolve into heterogeneous systems ... as failed components
/// are replaced"). The new machine keeps the hostname, IP, rack and rank
/// — only the MAC binding changes — so generated configuration stays
/// stable and the next boot reinstalls the same appliance.
pub fn replace_node(db: &mut ClusterDb, name: &str, new_mac: &str) -> Result<NodeRecord> {
    let _ = db.node_by_name(name)?; // must exist
    let clash = db.node_by_mac(new_mac)?.map(|n| n.name);
    if let Some(owner) = clash {
        if owner != name {
            return Err(DbError::DuplicateMac(new_mac.to_string()));
        }
    }
    db.execute_raw(&format!(
        "update nodes set mac = '{}' where name = '{}'",
        crate::sql_escape(new_mac),
        crate::sql_escape(name)
    ))?;
    db.node_by_name(name)
}

/// Register the frontend itself — done at frontend install time, before
/// any insert-ethers session ("When the frontend machine is installed from
/// the Rocks CD distribution, the database is created, and an entry for
/// this machine is added").
pub fn register_frontend(db: &mut ClusterDb, mac: &str, name: &str) -> Result<NodeRecord> {
    let id = db.next_node_id()?;
    let record = NodeRecord {
        id,
        mac: mac.to_string(),
        name: name.to_string(),
        membership: 1,
        rack: 0,
        rank: 0,
        ip: Ipv4::FRONTEND,
        comment: Some("Gateway machine".to_string()),
    };
    db.add_node(&record)?;
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac(i: u8) -> String {
        format!("00:50:8b:e0:00:{i:02x}")
    }

    #[test]
    fn sequential_integration_assigns_rack_rank_and_descending_ips() {
        let mut db = ClusterDb::new();
        register_frontend(&mut db, "00:30:c1:d8:ac:80", "frontend-0").unwrap();
        let mut session = InsertEthers::start(&mut db, "Compute", 0).unwrap();
        let reqs: Vec<DhcpRequest> = (1..=4).map(|i| DhcpRequest { mac: mac(i) }).collect();
        let records = session.observe_all(&reqs).unwrap();

        assert_eq!(records.len(), 4);
        assert_eq!(records[0].name, "compute-0-0");
        assert_eq!(records[3].name, "compute-0-3");
        assert_eq!(records[0].ip, Ipv4::new(10, 255, 255, 254));
        assert_eq!(records[1].ip, Ipv4::new(10, 255, 255, 253));
        assert_eq!(records[0].rank, 0);
        assert_eq!(records[3].rank, 3);
        assert!(records.iter().all(|r| r.rack == 0));
    }

    #[test]
    fn rebooted_known_node_is_ignored() {
        let mut db = ClusterDb::new();
        let mut session = InsertEthers::start(&mut db, "Compute", 0).unwrap();
        let req = DhcpRequest { mac: mac(1) };
        assert!(session.observe(&req).unwrap().is_some());
        let revision = session.db.revision();
        assert!(session.observe(&req).unwrap().is_none());
        assert_eq!(session.db.nodes().unwrap().len(), 1);
        assert_eq!(
            session.db.revision(),
            revision,
            "ignoring a known MAC is a pure read and must not invalidate caches"
        );
    }

    #[test]
    fn second_session_continues_rank() {
        let mut db = ClusterDb::new();
        {
            let mut s = InsertEthers::start(&mut db, "Compute", 0).unwrap();
            s.observe(&DhcpRequest { mac: mac(1) }).unwrap();
            s.observe(&DhcpRequest { mac: mac(2) }).unwrap();
        }
        {
            let mut s = InsertEthers::start(&mut db, "Compute", 0).unwrap();
            let r = s.observe(&DhcpRequest { mac: mac(3) }).unwrap().unwrap();
            assert_eq!(r.name, "compute-0-2");
        }
    }

    #[test]
    fn different_membership_uses_its_basename() {
        let mut db = ClusterDb::new();
        let mut s = InsertEthers::start(&mut db, "Ethernet Switches", 0).unwrap();
        let r = s.observe(&DhcpRequest { mac: mac(9) }).unwrap().unwrap();
        assert_eq!(r.name, "network-0-0"); // Table II's switch entry
    }

    #[test]
    fn unknown_membership_errors() {
        let mut db = ClusterDb::new();
        assert!(matches!(
            InsertEthers::start(&mut db, "Toasters", 0),
            Err(DbError::NoSuchMembership(_))
        ));
    }

    #[test]
    fn reports_are_regenerated_after_each_insert() {
        let mut db = ClusterDb::new();
        register_frontend(&mut db, "00:30:c1:d8:ac:80", "frontend-0").unwrap();
        let mut s = InsertEthers::start(&mut db, "Compute", 0).unwrap();
        s.observe(&DhcpRequest { mac: mac(1) }).unwrap();
        let reports = db.reports().unwrap();
        assert!(reports.hosts.contains("compute-0-0"));
        assert!(reports.dhcpd_conf.contains(&mac(1)));
        assert!(reports.pbs_nodes.contains("compute-0-0"));
    }

    #[test]
    fn replace_node_keeps_identity_changes_mac() {
        let mut db = ClusterDb::new();
        let mut s = InsertEthers::start(&mut db, "Compute", 0).unwrap();
        let original = s.observe(&DhcpRequest { mac: mac(1) }).unwrap().unwrap();

        let replaced = replace_node(&mut db, "compute-0-0", &mac(99)).unwrap();
        assert_eq!(replaced.name, original.name);
        assert_eq!(replaced.ip, original.ip);
        assert_eq!(replaced.rack, original.rack);
        assert_eq!(replaced.rank, original.rank);
        assert_eq!(replaced.mac, mac(99));

        // The old MAC is gone; the new one answers.
        let rows = db
            .sql_ref()
            .query_ref(&format!("select name from nodes where mac = '{}'", mac(1)))
            .unwrap();
        assert!(rows.rows.is_empty());

        // The UPDATE left the reports stale; the next read rebuilds them.
        let from_rows = crate::reports::build(&db).unwrap();
        let reports = db.reports().unwrap();
        assert!(reports.dhcpd_conf.contains(&mac(99)));
        assert!(!reports.dhcpd_conf.contains(&mac(1)));
        assert_eq!(*reports, from_rows);
    }

    #[test]
    fn a_hole_left_by_a_delete_is_reused_first() {
        let mut db = ClusterDb::new();
        let mut s = InsertEthers::start(&mut db, "Compute", 0).unwrap();
        for i in 1..=4 {
            s.observe(&DhcpRequest { mac: mac(i) }).unwrap();
        }
        db.execute_raw("delete from nodes where rank = 1").unwrap();
        let mut s = InsertEthers::start(&mut db, "Compute", 0).unwrap();
        let filled = s.observe(&DhcpRequest { mac: mac(5) }).unwrap().unwrap();
        let below = s.observe(&DhcpRequest { mac: mac(6) }).unwrap().unwrap();
        assert_eq!(filled.ip, Ipv4::new(10, 255, 255, 253), "first fit from the top");
        assert_eq!(below.ip, Ipv4::new(10, 255, 255, 250));
        assert_eq!((filled.id, below.id), (5, 6), "ids are never reused");
    }

    #[test]
    fn replace_node_rejects_stolen_mac() {
        let mut db = ClusterDb::new();
        let mut s = InsertEthers::start(&mut db, "Compute", 0).unwrap();
        s.observe(&DhcpRequest { mac: mac(1) }).unwrap();
        s.observe(&DhcpRequest { mac: mac(2) }).unwrap();
        assert!(matches!(
            replace_node(&mut db, "compute-0-0", &mac(2)),
            Err(DbError::DuplicateMac(_))
        ));
        // Re-asserting a node's own MAC is a no-op, not an error.
        assert!(replace_node(&mut db, "compute-0-0", &mac(1)).is_ok());
    }

    #[test]
    fn separate_racks_restart_rank_at_zero() {
        let mut db = ClusterDb::new();
        {
            let mut s = InsertEthers::start(&mut db, "Compute", 0).unwrap();
            s.observe(&DhcpRequest { mac: mac(1) }).unwrap();
        }
        let mut s = InsertEthers::start(&mut db, "Compute", 1).unwrap();
        let r = s.observe(&DhcpRequest { mac: mac(2) }).unwrap().unwrap();
        assert_eq!(r.name, "compute-1-0");
    }
}
