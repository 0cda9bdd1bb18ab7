//! Table I live: sweep concurrent reinstallations on the simulated
//! testbed and print the paper's table side-by-side, plus the §6.3
//! projections (serial micro-benchmark, Gigabit, replication).
//!
//! Run with: `cargo run --release --example reinstall_sweep`

use rocks::netsim::SimConfig;
use rocks::netsim::{max_full_speed_concurrency, serial_download_benchmark, ClusterSim};

const PAPER: &[(usize, f64)] = &[(1, 10.3), (2, 9.8), (4, 10.1), (8, 10.4), (16, 11.1), (32, 13.7)];

fn main() {
    println!("Table I: total reinstall time (minutes), one Fast-Ethernet HTTP server");
    println!("nodes | paper | simulated | server MB/s over the run");
    for &(n, paper) in PAPER {
        let mut sim = ClusterSim::new(SimConfig::paper_testbed(1), n);
        // A stalled simulation (flows active, no bandwidth, no timers)
        // would previously spin on Idle forever; surface it instead.
        let result = match sim.try_run_reinstall() {
            Ok(result) => result,
            Err(e) => {
                eprintln!("reinstall sweep aborted: {e}");
                std::process::exit(1);
            }
        };
        println!(
            "{n:>5} | {paper:>5.1} | {:>9.1} | {:>6.1}",
            result.total_minutes(),
            result.aggregate_throughput_bps() / 1e6,
        );
    }

    println!("\nSerial download micro-benchmark (paper: 7-8 MB/s):");
    println!("  {:.1} MB/s", serial_download_benchmark(&SimConfig::paper_testbed(1)));

    println!("\nFull-speed concurrency (mean node time within 5% of solo):");
    let fast = max_full_speed_concurrency(&|s| SimConfig::paper_testbed(s).bundled(12), 0.05, 256);
    let gige = max_full_speed_concurrency(&|s| SimConfig::gige(s).bundled(12), 0.05, 256);
    println!("  Fast Ethernet: {fast} nodes");
    println!("  Gigabit:       {gige} nodes ({:.1}x; paper 7.0-9.5x)", gige as f64 / fast as f64);
    for replicas in [2usize, 4] {
        let knee = max_full_speed_concurrency(
            &|s| SimConfig::replicated(replicas, s).bundled(12),
            0.05,
            256,
        );
        println!(
            "  {replicas} replicated servers: {knee} nodes ({:.1}x)",
            knee as f64 / fast as f64
        );
    }
}
