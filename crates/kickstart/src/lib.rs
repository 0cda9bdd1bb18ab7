#![warn(missing_docs)]

//! The Rocks description-driven installation framework (paper §6.1).
//!
//! This is the paper's central technical contribution: instead of cloning
//! disk images or hand-maintaining monolithic Kickstart files, every node
//! behaviour is *described* by a framework of XML files —
//!
//! * **node files** ([`nodefile::NodeFile`]): small single-purpose modules
//!   listing packages and post-configuration scripts for one service
//!   (Figure 2 shows the DHCP server module),
//! * a **graph file** ([`graph::Graph`]): directed edges composing modules
//!   into *appliances* (`compute`, `frontend`, ... — Figures 3 and 4),
//!
//! and a generator ([`generator::KickstartGenerator`]) plays the role of
//! the CGI script: given a requesting node's IP address it queries the
//! cluster database for the appliance type and localization, traverses the
//! graph, and emits a Red Hat–compliant text Kickstart file
//! ([`kickstart::KickstartFile`]).
//!
//! The default Rocks graph and node files ship in [`profiles`], [`dot`]
//! renders the graph in Graphviz format (Figure 4), and [`form`]
//! implements the §7 web form that builds the frontend's own Kickstart.
//!
//! For mass reinstalls, [`service::GenerationService`] wraps the
//! generator in a thread-safe memoizing layer: each appliance skeleton is
//! rendered once into a template, cached per `(graph root, arch)` against
//! the rocks-dist epoch (database writes leave it warm: it reads nothing
//! from the database), and every request splices its node's fields into
//! that template ([`kickstart::Kickstart`] is the result);
//! [`service::GenerationService::generate_all`] fans per-node generation
//! out across a worker pool.

pub mod dot;
pub mod form;
pub mod generator;
pub mod graph;
pub mod kickstart;
pub mod nodefile;
pub mod profiles;
pub mod service;

pub use form::FrontendForm;
pub use generator::KickstartGenerator;
pub use graph::{Edge, Graph, ProfileSet};
pub use kickstart::{Kickstart, KickstartFile, PostScript};
pub use nodefile::NodeFile;
pub use service::{GeneratedProfile, GenerationService, Stats};

/// Errors from profile parsing, graph traversal, or generation.
#[derive(Debug, Clone, PartialEq)]
pub enum KsError {
    /// Malformed XML.
    Xml(String),
    /// A node file is missing a required part or has a bad attribute.
    BadNodeFile {
        /// Node-file name.
        file: String,
        /// What was wrong.
        reason: String,
    },
    /// The graph references a node file that does not exist.
    UndefinedNode {
        /// The missing module name.
        referenced: String,
        /// The edge or traversal that referenced it.
        by: String,
    },
    /// Traversal started from an unknown root.
    UnknownRoot(String),
    /// Database lookups failed during generation.
    Db(String),
    /// The requesting address is not registered.
    UnknownAddress(String),
}

impl std::fmt::Display for KsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KsError::Xml(m) => write!(f, "xml: {m}"),
            KsError::BadNodeFile { file, reason } => write!(f, "node file {file}: {reason}"),
            KsError::UndefinedNode { referenced, by } => {
                write!(f, "edge references undefined node {referenced:?} (from {by:?})")
            }
            KsError::UnknownRoot(r) => write!(f, "unknown appliance root: {r}"),
            KsError::Db(m) => write!(f, "database: {m}"),
            KsError::UnknownAddress(ip) => {
                write!(f, "no node registered with address {ip} (kickstart request denied)")
            }
        }
    }
}

impl std::error::Error for KsError {}

impl From<rocks_xml::XmlError> for KsError {
    fn from(e: rocks_xml::XmlError) -> Self {
        KsError::Xml(e.to_string())
    }
}

impl From<rocks_db::DbError> for KsError {
    fn from(e: rocks_db::DbError) -> Self {
        KsError::Db(e.to_string())
    }
}

/// Result alias.
pub type Result<T> = std::result::Result<T, KsError>;
