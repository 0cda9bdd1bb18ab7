//! The NFS home-directory service — "the one unscalable service" (§5) —
//! and the common-mode failure behaviour of §4: "if Linux can't bring up
//! the Ethernet network, either a hardware error has occurred ... or a
//! central (common-mode) service (often NFS) has failed. ... For a
//! common-mode failure, fixing the service and then power cycling nodes
//! (remotely) solves the dilemma."

use std::collections::BTreeMap;

/// Mount attempt failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MountError {
    /// The path is not exported to this client.
    NotExported {
        /// Requested path.
        path: String,
        /// Requesting client address.
        client: String,
    },
    /// The server is down: the client hangs (the common-mode failure).
    ServerDown,
}

impl std::fmt::Display for MountError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MountError::NotExported { path, client } => {
                write!(f, "mount: {path} not exported to {client}")
            }
            MountError::ServerDown => write!(f, "mount: RPC timeout (server not responding)"),
        }
    }
}

/// The frontend's NFS server: an exports table and client mount state.
#[derive(Debug, Default)]
pub struct NfsServer {
    /// Export path → allowed client prefix (e.g. `10.` for the cluster).
    exports: BTreeMap<String, String>,
    /// Active mounts by client: the paths each has mounted, a path
    /// mounted twice listed twice. Keyed so that a client's reinstall
    /// and accesses cost what that client holds, not the cluster.
    mounts: BTreeMap<String, Vec<String>>,
    /// Whether the daemon is answering.
    up: bool,
}

impl NfsServer {
    /// A running server with no exports.
    pub fn new() -> NfsServer {
        NfsServer { up: true, ..Default::default() }
    }

    /// Export `path` to clients whose address starts with `client_prefix`
    /// (the `/etc/exports` wildcard model).
    pub fn export(&mut self, path: &str, client_prefix: &str) {
        self.exports.insert(path.to_string(), client_prefix.to_string());
    }

    /// Kill the daemon (common-mode failure injection).
    pub fn crash(&mut self) {
        self.up = false;
    }

    /// Restart the daemon ("fixing the service"). Existing mounts
    /// recover — NFS hard mounts block rather than break.
    pub fn restart(&mut self) {
        self.up = true;
    }

    /// A client mounts an export.
    pub fn mount(&mut self, client_ip: &str, path: &str) -> Result<(), MountError> {
        if !self.up {
            return Err(MountError::ServerDown);
        }
        match self.exports.get(path) {
            Some(prefix) if client_ip.starts_with(prefix.as_str()) => {
                self.mounts.entry(client_ip.to_string()).or_default().push(path.to_string());
                Ok(())
            }
            _ => Err(MountError::NotExported {
                path: path.to_string(),
                client: client_ip.to_string(),
            }),
        }
    }

    /// An I/O access through a mount: blocks (errors) when the server is
    /// down — the state where a whole cluster looks dead at once.
    pub fn access(&self, client_ip: &str, path: &str) -> Result<(), MountError> {
        if !self.up {
            return Err(MountError::ServerDown);
        }
        if self.mounts.get(client_ip).is_some_and(|paths| paths.iter().any(|p| p == path)) {
            Ok(())
        } else {
            Err(MountError::NotExported { path: path.to_string(), client: client_ip.to_string() })
        }
    }

    /// Active mount count.
    pub fn mount_count(&self) -> usize {
        self.mounts.values().map(Vec::len).sum()
    }

    /// Drop all mounts from a client (what its reinstall does).
    pub fn unmount_client(&mut self, client_ip: &str) {
        self.mounts.remove(client_ip);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exported() -> NfsServer {
        let mut server = NfsServer::new();
        server.export("/export/home", "10.");
        server
    }

    #[test]
    fn cluster_clients_can_mount_exports() {
        let mut server = exported();
        server.mount("10.255.255.254", "/export/home").unwrap();
        server.access("10.255.255.254", "/export/home").unwrap();
        assert_eq!(server.mount_count(), 1);
    }

    #[test]
    fn outside_clients_are_refused() {
        let mut server = exported();
        let err = server.mount("192.168.1.5", "/export/home").unwrap_err();
        assert!(matches!(err, MountError::NotExported { .. }));
    }

    #[test]
    fn unexported_paths_are_refused() {
        let mut server = exported();
        let err = server.mount("10.1.1.2", "/secret").unwrap_err();
        assert!(matches!(err, MountError::NotExported { .. }));
    }

    #[test]
    fn common_mode_failure_blocks_every_client() {
        // §4's scenario: all nodes look dead because one service died.
        let mut server = exported();
        for i in 0..4 {
            server.mount(&format!("10.255.255.{}", 254 - i), "/export/home").unwrap();
        }
        server.crash();
        for i in 0..4 {
            let err = server.access(&format!("10.255.255.{}", 254 - i), "/export/home");
            assert_eq!(err, Err(MountError::ServerDown));
        }
        // Fix the service: everyone recovers without remounting.
        server.restart();
        for i in 0..4 {
            server.access(&format!("10.255.255.{}", 254 - i), "/export/home").unwrap();
        }
    }

    #[test]
    fn reinstall_drops_client_mounts() {
        let mut server = exported();
        server.mount("10.255.255.254", "/export/home").unwrap();
        server.mount("10.255.255.253", "/export/home").unwrap();
        server.mount("10.255.255.253", "/export/home").unwrap();
        server.unmount_client("10.255.255.254");
        assert_eq!(server.mount_count(), 2, "a mount made twice counts twice");
        assert!(server.access("10.255.255.254", "/export/home").is_err());
        assert!(server.access("10.255.255.253", "/export/home").is_ok());
    }
}
