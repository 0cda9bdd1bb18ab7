//! The frontend DHCP service.
//!
//! Serves fixed-address answers for MACs recorded in the cluster
//! database, and logs every request to a syslog-like stream — which is
//! exactly where `insert-ethers` watches for unknown hardware (paper
//! §6.4: "Insert-ethers monitors syslog messages for DHCP requests from
//! new hosts").

use rocks_db::{ClusterDb, Ipv4};

/// One syslog line produced by the service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyslogLine {
    /// Raw text, `dhcpd: DHCPDISCOVER from <mac>` style.
    pub text: String,
    /// The MAC that triggered it.
    pub mac: String,
    /// Whether the MAC was known when the request arrived.
    pub known: bool,
}

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

/// The service: a view over the cluster database plus a syslog buffer.
#[derive(Debug, Default)]
pub struct DhcpService {
    syslog: Vec<SyslogLine>,
}

impl DhcpService {
    /// New service with an empty log.
    pub fn new() -> DhcpService {
        DhcpService::default()
    }

    /// Handle a DISCOVER. Known MACs get their fixed binding; unknown
    /// MACs get no answer but do get logged (insert-ethers' cue). One
    /// indexed lookup of the MAC, whatever the size of the cluster.
    pub fn discover(&mut self, db: &ClusterDb, mac: &str) -> Option<DhcpAnswer> {
        match db.node_by_mac(mac).ok()? {
            Some(node) => {
                self.syslog.push(SyslogLine {
                    text: format!("dhcpd: DHCPACK on {} to {mac} ({})", node.ip, node.name),
                    mac: mac.to_string(),
                    known: true,
                });
                Some(DhcpAnswer { ip: node.ip, hostname: node.name, next_server: Ipv4::FRONTEND })
            }
            None => {
                self.syslog.push(SyslogLine {
                    text: format!("dhcpd: DHCPDISCOVER from {mac} via eth0: network 10.0.0.0/8: no free leases"),
                    mac: mac.to_string(),
                    known: false,
                });
                None
            }
        }
    }

    /// MACs of unknown hosts seen so far, in first-seen order without
    /// duplicates — the queue insert-ethers works through.
    pub fn unknown_macs(&self) -> Vec<String> {
        let mut seen = std::collections::BTreeSet::new();
        self.syslog
            .iter()
            .filter(|l| !l.known)
            .filter(|l| seen.insert(l.mac.clone()))
            .map(|l| l.mac.clone())
            .collect()
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
        assert!(dhcp.syslog[0].known);
    }

    #[test]
    fn unknown_mac_logged_not_answered() {
        let db = ClusterDb::new();
        let mut dhcp = DhcpService::new();
        assert!(dhcp.discover(&db, "00:50:8b:aa:bb:cc").is_none());
        assert_eq!(dhcp.unknown_macs(), vec!["00:50:8b:aa:bb:cc"]);
        assert!(dhcp.syslog[0].text.contains("DHCPDISCOVER"));
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
        assert_eq!(dhcp.unknown_macs(), vec!["00:50:8b:aa:bb:01", "00:50:8b:aa:bb:02"]);
    }

    #[test]
    fn full_discovery_to_integration_loop() {
        // The §6.4 flow end-to-end: unknown boot → syslog → insert-ethers
        // → database row → next boot answered.
        let mut db = ClusterDb::new();
        let mut dhcp = DhcpService::new();
        let mac = "00:50:8b:e0:44:5e";
        assert!(dhcp.discover(&db, mac).is_none());

        let mut session = InsertEthers::start(&mut db, "Compute", 0).unwrap();
        for unknown in dhcp.unknown_macs() {
            session.observe(&DhcpRequest { mac: unknown }).unwrap();
        }

        let answer = dhcp.discover(&db, mac).unwrap();
        assert_eq!(answer.hostname, "compute-0-0");
        assert_eq!(answer.ip, Ipv4::new(10, 255, 255, 254));
    }
}
