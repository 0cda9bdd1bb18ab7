#![warn(missing_docs)]

//! Cluster services (paper §4–5): the scalable services Rocks builds on.
//!
//! "Another requirement for scaling out is only using scalable services
//! and utilizing dynamic services for frequently changing state ... For
//! configuring Ethernet devices on compute nodes, the Dynamic Host
//! Configuration Protocol (DHCP) is essential. User account configuration
//! ... \[is\] synchronized from the frontend node to compute nodes with the
//! Network Information Service (NIS). We have employed one unscalable
//! service, the Network File System (NFS)."
//!
//! * [`DhcpService`] — the frontend DHCP service: fixed MAC→IP bindings from
//!   the cluster database, plus the queue of unanswered MACs
//!   `insert-ethers` consumes to discover new hardware,
//! * [`NisDomain`] — versioned account-map synchronization,
//! * [`NfsServer`] — the exported home-directory service, including the
//!   common-mode failure behaviour §4 describes (when NFS dies, nodes
//!   appear dead; fix the service and power cycle).

mod dhcp;
mod nfs;
mod nis;

pub use dhcp::{DhcpAnswer, DhcpService};
pub use nfs::{MountError, NfsServer};
pub use nis::{AccountMap, NisDomain, PasswdEntry};
