//! Report generators: service configuration files derived from the
//! database (paper §6.4: "From these tables we generate the /etc/hosts,
//! /etc/dhcpd.conf, and PBS configuration files").
//!
//! Generated files are *reports*: the database is the only source; texts
//! are a function of the rows, extended on append and rebuilt when
//! anything else changes ([`ClusterDb::reports`]), both through the one
//! place a node's lines are formatted.

use std::collections::HashMap;
use std::fmt::Write;

use crate::schema::NodeRecord;
use crate::{ClusterDb, Result};

/// The three generated files, bundled so insert-ethers can refresh all of
/// them atomically after a database change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratedReports {
    /// `/etc/hosts` content.
    pub hosts: String,
    /// `/etc/dhcpd.conf` content.
    pub dhcpd_conf: String,
    /// PBS server `nodes` file content.
    pub pbs_nodes: String,
}

impl GeneratedReports {
    /// The files of a cluster without nodes: the loopback entry and the
    /// shared-network declaration for the cluster network.
    fn preamble() -> Self {
        GeneratedReports {
            hosts: concat!(
                "# Generated by insert-ethers from the cluster database.\n",
                "# Do not edit: changes are overwritten on the next rebuild.\n",
                "127.0.0.1\tlocalhost.localdomain\tlocalhost\n",
            )
            .to_string(),
            dhcpd_conf: concat!(
                "# Generated by insert-ethers from the cluster database.\n",
                "ddns-update-style none;\n\n",
                "subnet 10.0.0.0 netmask 255.0.0.0 {\n",
                "\tdefault-lease-time\t\t1200;\n",
                "\tmax-lease-time\t\t\t1200;\n",
                "\toption domain-name\t\t\"local\";\n",
                "\toption next-server\t\t10.1.1.1;\n",
                "}\n\n",
            )
            .to_string(),
            pbs_nodes: String::new(),
        }
    }

    /// Append one node: an `/etc/hosts` line with a `.local` alias for
    /// the cluster-internal name, a fixed-address dhcpd host stanza —
    /// exactly the binding insert-ethers creates — and, when its
    /// membership runs jobs, a PBS line with the conventional
    /// `np=<cpus>` attribute.
    pub(crate) fn push_node(&mut self, node: &NodeRecord, compute: bool) {
        let NodeRecord { name, mac, ip, .. } = node;
        let infallible = "writing to a String cannot fail";
        writeln!(self.hosts, "{ip}\t{name}.local\t{name}").expect(infallible);
        writeln!(
            self.dhcpd_conf,
            "host {name} {{\n\thardware ethernet {mac};\n\tfixed-address {ip};\n\
             \toption host-name \"{name}\";\n}}"
        )
        .expect(infallible);
        if compute {
            writeln!(self.pbs_nodes, "{name} np=2").expect(infallible);
        }
    }
}

/// All three reports from the rows alone, nodes in id order: the whole
/// rebuild behind [`ClusterDb::reports`].
pub(crate) fn build(db: &ClusterDb) -> Result<GeneratedReports> {
    // The first row of an id decides, as in `ClusterDb::membership`.
    let mut compute = HashMap::new();
    for m in db.memberships()? {
        compute.entry(m.id).or_insert(m.compute);
    }
    let mut reports = GeneratedReports::preamble();
    for node in db.nodes()? {
        reports.push_node(&node, compute.get(&node.membership) == Some(&true));
    }
    Ok(reports)
}

/// An owned copy of the current reports.
pub fn generate_all(db: &mut ClusterDb) -> Result<GeneratedReports> {
    Ok(db.reports()?.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insert_ethers::{register_frontend, DhcpRequest, InsertEthers};
    use crate::ip::Ipv4;
    use crate::schema::NodeRecord;

    fn populated_db() -> ClusterDb {
        let mut db = ClusterDb::new();
        register_frontend(&mut db, "00:30:c1:d8:ac:80", "frontend-0").unwrap();
        let mut s = InsertEthers::start(&mut db, "Compute", 0).unwrap();
        for i in 1..=3 {
            s.observe(&DhcpRequest { mac: format!("00:50:8b:e0:00:{i:02x}") }).unwrap();
        }
        db
    }

    #[test]
    fn hosts_file_lists_every_node() {
        let mut db = populated_db();
        let hosts = &db.reports().unwrap().hosts;
        assert!(hosts.contains("127.0.0.1"));
        assert!(hosts.contains("10.1.1.1\tfrontend-0.local\tfrontend-0"));
        assert!(hosts.contains("compute-0-0"));
        assert!(hosts.contains("compute-0-2"));
        assert_eq!(hosts.lines().filter(|l| !l.starts_with('#')).count(), 1 + 4);
    }

    #[test]
    fn dhcpd_conf_binds_mac_to_ip() {
        let mut db = populated_db();
        let conf = &db.reports().unwrap().dhcpd_conf;
        assert!(conf.contains("subnet 10.0.0.0 netmask 255.0.0.0"));
        assert!(conf.contains("hardware ethernet 00:50:8b:e0:00:01;"));
        assert!(conf.contains("fixed-address 10.255.255.254;"));
        assert_eq!(conf.matches("host ").count(), 4);
    }

    #[test]
    fn pbs_nodes_lists_only_compute_members() {
        let mut db = populated_db();
        let pbs = &db.reports().unwrap().pbs_nodes;
        assert_eq!(pbs.lines().count(), 3); // frontend excluded
        assert!(pbs.lines().all(|l| l.starts_with("compute-0-") && l.ends_with("np=2")));
    }

    #[test]
    fn non_compute_appliances_stay_out_of_pbs() {
        let mut db = populated_db();
        db.add_node(&NodeRecord::new(
            99,
            "00:01:e7:1a:be:00",
            "network-0-0",
            4,
            0,
            0,
            Ipv4::new(10, 255, 255, 200),
        ))
        .unwrap();
        let reports = db.reports().unwrap();
        assert!(!reports.pbs_nodes.contains("network-0-0"));
        // ...but it does appear in hosts and dhcpd.
        assert!(reports.hosts.contains("network-0-0"));
        assert!(reports.dhcpd_conf.contains("network-0-0"));
    }

    #[test]
    fn reports_are_deterministic() {
        let mut db = populated_db();
        let a = generate_all(&mut db).unwrap();
        let b = generate_all(&mut db).unwrap();
        assert_eq!(a, b);
    }
}
