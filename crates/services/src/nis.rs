//! NIS-style account synchronization (paper §5: "User account
//! configuration (e.g., passwords and home directory locations) are
//! synchronized from the frontend node to compute nodes with the Network
//! Information Service").

use std::collections::BTreeMap;

/// One passwd-map entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PasswdEntry {
    /// Login name.
    pub user: String,
    /// Numeric uid.
    pub uid: u32,
    /// Home directory (NFS-mounted from the frontend).
    pub home: String,
}

/// A versioned account map — the master copy lives on the frontend;
/// clients hold possibly-stale copies and converge by pulling.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccountMap {
    /// Monotonic version, bumped on every change (NIS map order number).
    pub version: u64,
    entries: BTreeMap<String, PasswdEntry>,
}

impl AccountMap {
    /// Add or replace a user; bumps the version.
    pub fn upsert(&mut self, entry: PasswdEntry) {
        self.entries.insert(entry.user.clone(), entry);
        self.version += 1;
    }

    /// Look up a user.
    pub fn get(&self, user: &str) -> Option<&PasswdEntry> {
        self.entries.get(user)
    }
}

/// An NIS domain: one master map plus per-client replicas.
#[derive(Debug, Default)]
pub struct NisDomain {
    /// The frontend's authoritative map.
    pub master: AccountMap,
    clients: BTreeMap<String, AccountMap>,
}

impl NisDomain {
    /// New empty domain.
    pub fn new() -> NisDomain {
        NisDomain::default()
    }

    /// Register a client (a freshly installed compute node binds to the
    /// domain with an empty map, then pulls).
    pub fn bind_client(&mut self, node: &str) {
        self.clients.insert(node.to_string(), AccountMap::default());
    }

    /// A client's current view.
    pub fn client(&self, node: &str) -> Option<&AccountMap> {
        self.clients.get(node)
    }

    /// Pull: bring one client up to the master version. Returns true if
    /// anything changed.
    pub fn sync_client(&mut self, node: &str) -> bool {
        match self.clients.get_mut(node) {
            Some(map) if map.version != self.master.version => {
                *map = self.master.clone();
                true
            }
            _ => false,
        }
    }

    /// Nodes whose maps are behind the master.
    pub fn stale_clients(&self) -> Vec<&str> {
        self.clients
            .iter()
            .filter(|(_, m)| m.version != self.master.version)
            .map(|(n, _)| n.as_str())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn user(name: &str, uid: u32) -> PasswdEntry {
        PasswdEntry { user: name.into(), uid, home: format!("/export/home/{name}") }
    }

    #[test]
    fn versions_bump_on_change() {
        let mut map = AccountMap::default();
        assert_eq!(map.version, 0);
        map.upsert(user("bruno", 500));
        assert_eq!(map.version, 1);
        map.upsert(user("bruno", 501)); // replacement also bumps
        assert_eq!(map.version, 2);
        assert_eq!(map.get("bruno").unwrap().uid, 501);
    }

    #[test]
    fn clients_converge_on_sync() {
        let mut domain = NisDomain::new();
        domain.bind_client("compute-0-0");
        domain.bind_client("compute-0-1");
        domain.master.upsert(user("mjk", 501));
        assert_eq!(domain.stale_clients().len(), 2);
        assert!(domain.sync_client("compute-0-0"));
        assert!(domain.sync_client("compute-0-1"));
        assert!(domain.stale_clients().is_empty());
        assert_eq!(domain.client("compute-0-0").unwrap().get("mjk").unwrap().uid, 501);
        // Second sync is a no-op.
        assert!(!domain.sync_client("compute-0-0"));
    }

    #[test]
    fn partial_sync_leaves_others_stale() {
        let mut domain = NisDomain::new();
        domain.bind_client("a");
        domain.bind_client("b");
        domain.master.upsert(user("x", 1));
        assert!(domain.sync_client("a"));
        assert_eq!(domain.stale_clients(), vec!["b"]);
        // An account change makes everyone stale again.
        domain.master.upsert(user("y", 2));
        assert_eq!(domain.stale_clients().len(), 2);
    }

    #[test]
    fn reinstalled_node_rebinds_empty_then_pulls() {
        // A reinstall wipes node state: re-binding models that, and one
        // pull restores consistency — the paper's whole point.
        let mut domain = NisDomain::new();
        domain.master.upsert(user("pi", 600));
        domain.bind_client("compute-0-5");
        assert_eq!(domain.client("compute-0-5").unwrap(), &AccountMap::default());
        domain.sync_client("compute-0-5");
        assert_eq!(domain.client("compute-0-5").unwrap(), &domain.master);
    }
}
