#![warn(missing_docs)]

//! Experiment implementations behind the `reproduce` binary.
//!
//! One public function per table/figure/claim in the paper's evaluation;
//! each returns both the data and a rendered text block so `reproduce`
//! can print the same rows the paper reports (see EXPERIMENTS.md for the
//! side-by-side).

pub mod experiments;

pub use experiments::*;
