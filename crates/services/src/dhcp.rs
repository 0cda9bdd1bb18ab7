//! The frontend DHCP service.
//!
//! Serves fixed-address answers for MACs recorded in the cluster
//! database, and notes every MAC it could not answer — which is exactly
//! what `insert-ethers` watches for (paper §6.4: "Insert-ethers monitors
//! syslog messages for DHCP requests from new hosts").

use rocks_db::{ClusterDb, Ipv4};

/// A DHCP answer for a known host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DhcpAnswer {
    /// The fixed address bound to the MAC.
    pub ip: Ipv4,
    /// The hostname option.
    pub hostname: String,
    /// `next-server` — where Kickstart fetches from (the frontend).
    pub next_server: Ipv4,
}

/// The service: a view over the cluster database plus the queue of
/// unanswered MACs.
#[derive(Debug, Default)]
pub struct DhcpService {
    /// MACs with no answer yet, in first-seen order without duplicates.
    unknown: Vec<String>,
}

impl DhcpService {
    /// New service with an empty queue.
    pub fn new() -> DhcpService {
        DhcpService::default()
    }

    /// Handle a DISCOVER. Known MACs get their fixed binding; unknown
    /// MACs get no answer but join the queue (insert-ethers' cue). One
    /// indexed lookup of the MAC, whatever the size of the cluster.
    pub fn discover(&mut self, db: &ClusterDb, mac: &str) -> Option<DhcpAnswer> {
        match db.node_by_mac(mac).ok()? {
            Some(node) => {
                Some(DhcpAnswer { ip: node.ip, hostname: node.name, next_server: Ipv4::FRONTEND })
            }
            None => {
                // PXE clients retry aggressively: a retry keeps its place.
                if !self.unknown.iter().any(|m| m == mac) {
                    self.unknown.push(mac.to_string());
                }
                None
            }
        }
    }

    /// Take the MACs of unknown hosts seen since the last call, in
    /// first-seen order without duplicates — the queue insert-ethers
    /// works through.
    pub fn drain_unknown(&mut self) -> Vec<String> {
        std::mem::take(&mut self.unknown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocks_db::insert_ethers::{register_frontend, DhcpRequest, InsertEthers};

    #[test]
    fn known_mac_gets_fixed_binding() {
        let mut db = ClusterDb::new();
        register_frontend(&mut db, "00:30:c1:d8:ac:80", "frontend-0").unwrap();
        let mut dhcp = DhcpService::new();
        let answer = dhcp.discover(&db, "00:30:c1:d8:ac:80").unwrap();
        assert_eq!(answer.ip, Ipv4::FRONTEND);
        assert_eq!(answer.hostname, "frontend-0");
        assert_eq!(answer.next_server, Ipv4::FRONTEND);
        assert!(dhcp.drain_unknown().is_empty(), "a known MAC is not queued");
    }

    #[test]
    fn unknown_mac_logged_not_answered() {
        let db = ClusterDb::new();
        let mut dhcp = DhcpService::new();
        assert!(dhcp.discover(&db, "00:50:8b:aa:bb:cc").is_none());
        assert_eq!(dhcp.drain_unknown(), ["00:50:8b:aa:bb:cc"]);
    }

    #[test]
    fn discovery_queue_deduplicates_retries() {
        let db = ClusterDb::new();
        let mut dhcp = DhcpService::new();
        // PXE clients retry aggressively.
        for _ in 0..5 {
            dhcp.discover(&db, "00:50:8b:aa:bb:01");
        }
        dhcp.discover(&db, "00:50:8b:aa:bb:02");
        assert_eq!(dhcp.drain_unknown(), ["00:50:8b:aa:bb:01", "00:50:8b:aa:bb:02"]);
    }

    #[test]
    fn full_discovery_to_integration_loop() {
        // The §6.4 flow end-to-end: unknown boot → queue → insert-ethers
        // → database row → next boot answered.
        let mut db = ClusterDb::new();
        let mut dhcp = DhcpService::new();
        let mac = "00:50:8b:e0:44:5e";
        assert!(dhcp.discover(&db, mac).is_none());

        let mut session = InsertEthers::start(&mut db, "Compute", 0).unwrap();
        for unknown in dhcp.drain_unknown() {
            session.observe(&DhcpRequest { mac: unknown }).unwrap();
        }
        assert!(dhcp.drain_unknown().is_empty());

        let answer = dhcp.discover(&db, mac).unwrap();
        assert_eq!(answer.hostname, "compute-0-0");
        assert_eq!(answer.ip, Ipv4::new(10, 255, 255, 254));
    }
}
