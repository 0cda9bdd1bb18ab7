#![warn(missing_docs)]

//! Experiment implementations behind the `reproduce` binary.
//!
//! One public function per table/figure/claim in the paper's evaluation;
//! each returns both the data and a rendered text block so `reproduce`
//! can print the same rows the paper reports (see EXPERIMENTS.md for the
//! side-by-side).

mod experiments;

use experiments::{
    ablation, cabinet_topology, fig1, fig2, fig3, fig4, fig5, fig6, fig7, gige_scaling,
    micro_benchmark, reinstall_range, replica_scaling, table1, table2, table3, update_tracking,
    utilization_timeline,
};
pub use experiments::{bringup_summary, chaos, rollout, serve};

/// A named experiment and the function that renders it.
pub type Experiment = (&'static str, fn() -> String);

/// The paper's tables, figures and claims, in paper order. Virtual time,
/// seed 1, deterministic: `tests/paper_golden.rs` pins their output byte
/// for byte to `tests/golden/reproduce_paper.txt` at the workspace root.
pub const PAPER: &[Experiment] = &[
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("fig1", fig1),
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("micro", micro_benchmark),
    ("range", reinstall_range),
    ("cabinets", cabinet_topology),
    ("utilization", utilization_timeline),
    ("gige", gige_scaling),
    ("replicas", replica_scaling),
    ("updates", update_tracking),
    ("ablation", ablation),
];
