#![warn(missing_docs)]

//! RPM package model for the NPACI Rocks reproduction.
//!
//! Rocks' management strategy rests on the rule "all software deployed on
//! Rocks clusters are in RPMs" (paper §5). This crate models everything the
//! management layer observes about an RPM:
//!
//! * [`Evr`] — the `epoch:version-release` triple with the genuine
//!   `rpmvercmp` ordering algorithm, which `rocks-dist` relies on to
//!   "resolve version numbers of RPMs and only include the most recent
//!   software" (§6.2.1),
//! * [`Package`] — name, architecture, sizes, dependencies, and a
//!   synthetic file manifest,
//! * [`Repository`] — a collection of packages with merge and
//!   dependency-closure operations,
//! * [`synth`] — synthetic Red Hat–like base distributions matching the
//!   magnitudes measured in the paper (162 packages and ~225 MB transferred
//!   per compute-node install; Figure 7 and §6.3),
//! * [`UpdateStream`] — a synthetic update stream reproducing the §6.2.1
//!   observation that Red Hat 6.2 received 124 updates in under a year
//!   ("one update every three days"), several of them security fixes.
//!
//! Payload *bits* are never modelled — only names, versions, sizes, and
//! relationships, which is the entirety of what the paper's tools consume.
//!
//! `synth` is a namespace callers spell out; every other item is named
//! here, in `lib.rs`, and its module is private.

mod evr;
mod package;
mod repo;
pub mod synth;
mod updates;

pub use evr::{rpmvercmp, Evr};
pub use package::{Arch, Package, PackageBuilder, PackageKind};
pub use repo::{Repository, ResolveError};
pub use updates::{Update, UpdateKind, UpdateStream};
