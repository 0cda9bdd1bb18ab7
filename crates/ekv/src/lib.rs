#![warn(missing_docs)]

//! eKV — Ethernet Keyboard and Video (paper §6.3).
//!
//! "This is accomplished by slightly modifying Red Hat's Kickstart
//! installation program, anaconda, to capture standard output and present
//! it on a telnet-compatible port." `shoot-node` then "pops open an xterm
//! window which displays the status of the Red Hat Kickstart
//! installation" (Figure 7).
//!
//! This crate implements the wire path for real:
//!
//! * [`EkvServer`] — the installing node's side: a TCP listener
//!   on a telnet-compatible port that broadcasts captured installer
//!   output to every connected watcher,
//! * [`watch_lines`] — the shoot-node side: connect and stream lines,
//! * [`InstallScreen`] — renders the Figure 7 status panel from install
//!   progress,
//! * an in-process [`LocalFeed`] transport for deterministic
//!   tests and simulator integration.
//!
//! Everything above is named here, in `lib.rs`; the modules behind it are
//! private.

mod client;
mod screen;
mod server;

pub use client::watch_lines;
pub use screen::{InstallScreen, PanelState};
pub use server::{EkvServer, LocalFeed};
