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
//! * [`LocalFeed`] — the sans-IO core: the transcript as one buffer, each
//!   watcher a cursor into it; publishing appends and does no I/O, and a
//!   late reader replays everything,
//! * [`EkvServer`] — the installing node's side: that feed on a
//!   telnet-compatible TCP port. It starts no thread; the installer's own
//!   loop drives the nonblocking sockets each time it publishes or waits
//!   for input, so a watcher that stops reading never stalls the install,
//! * [`watch_lines`] — the shoot-node side: connect and stream lines,
//! * [`InstallScreen`] — renders the Figure 7 status panel from install
//!   progress.
//!
//! Everything above is named here, in `lib.rs`; the modules behind it are
//! private.

mod client;
mod screen;
mod server;

pub use client::watch_lines;
pub use screen::{InstallScreen, PanelState};
pub use server::{EkvServer, LocalFeed};
