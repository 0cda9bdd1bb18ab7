#![warn(missing_docs)]

//! `rocks-dist`: building cluster-enhanced Linux distributions (paper §6.2).
//!
//! "Rocks-dist gathers software components from the following sources and
//! constructs a single new distribution: Red Hat software [stock + updates
//! mirrored locally], third party software, local software. ... The
//! resulting Rocks distribution looks just like a Red Hat distribution,
//! only with more software. A consequence of this is repeatability — a
//! Rocks distribution can be run through the identical process to produce
//! an enhanced Rocks distribution" (Figures 5 and 6).
//!
//! * [`DistTree`] — the distribution's file tree, virtualized so
//!   tests are hermetic and the §6.2.3 "mostly symbolic links, ~25 MB,
//!   built in under a minute" claims are measurable,
//! * [`Distribution`] — a named tree + package repository +
//!   the XML `build/` profile directory,
//! * [`build`] — the `rocks-dist build` pipeline: mirror → resolve
//!   versions → link tree → graft profiles → report,
//! * [`build_chain`] — chained parent/child distributions (Figure 6's
//!   object-oriented model).
//!
//! Everything above is named here, in `lib.rs`; the modules behind it are
//! private.

mod builder;
mod distribution;
mod hierarchy;
mod tree;

pub use builder::{build, build_traced, BuildConfig, BuildReport, DistError};
pub use distribution::Distribution;
pub use hierarchy::{build_chain, Level};
pub use tree::{DistTree, Entry};
