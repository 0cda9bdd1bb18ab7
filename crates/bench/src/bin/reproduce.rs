//! `reproduce` — regenerate every table and figure from the paper.
//!
//! ```text
//! reproduce all        # everything, in paper order
//! reproduce table1     # Table I   — reinstall time vs concurrency
//! reproduce table2     # Table II  — the Nodes database table
//! reproduce table3     # Table III — the Memberships table
//! reproduce fig1..fig7 # figures
//! reproduce micro      # §6.3 serial-download micro-benchmark
//! reproduce range      # §6.3 5-10 minute reinstall-time range
//! reproduce cabinets   # Figure 1 extension: cabinet-switch uplinks
//! reproduce gige       # §6.3 Gigabit projection
//! reproduce replicas   # §6.3 replicated-server projection
//! reproduce updates    # §6.2.1 update-tracking experiment
//! reproduce ablation   # §1/§3 reinstall-vs-verify ablation
//! reproduce chaos [--quick]    # seeded chaos sweep (writes BENCH_chaos.json)
//! reproduce rollout [--quick]  # rolling reinstall under batch load (writes BENCH_rollout.json)
//! reproduce serve [--quick]    # kickstart serving frontend at saturation (writes BENCH_serve.json)
//! ```

use rocks_bench::{bringup_summary, chaos, rollout, serve, PAPER};

type Sweep = (&'static str, fn(quick: bool) -> String);

/// The seeded sweeps, after the paper's experiments ([`PAPER`]): virtual
/// time, so each snapshot they write is a function of code and seed. They
/// take `quick` (`--quick`): sizes that finish in seconds under a debug
/// build.
const SWEEPS: &[Sweep] = &[
    // 200 seeded scenarios instead of 1000.
    ("chaos", chaos),
    // 32 nodes, 500 invariant seeds.
    ("rollout", rollout),
    // Shorter horizons, 200 seeds.
    ("serve", serve),
];

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let quick = std::env::args().any(|a| a == "--quick");
    match arg.as_str() {
        // Everything at full size, whatever the flags.
        "all" => {
            for (name, f) in PAPER {
                println!("==== {name} ====");
                println!("{}", f());
            }
            for (name, f) in SWEEPS {
                println!("==== {name} ====");
                println!("{}", f(false));
            }
            println!("==== bring-up ====");
            println!("{}", bringup_summary());
        }
        "list" => {
            for name in PAPER.iter().map(|(n, _)| n).chain(SWEEPS.iter().map(|(n, _)| n)) {
                println!("{name}");
            }
        }
        other => {
            if let Some((_, f)) = PAPER.iter().find(|(name, _)| *name == other) {
                println!("{}", f());
            } else if let Some((_, f)) = SWEEPS.iter().find(|(name, _)| *name == other) {
                println!("{}", f(quick));
            } else {
                eprintln!("unknown experiment {other:?}; try `reproduce list`");
                std::process::exit(2);
            }
        }
    }
}
