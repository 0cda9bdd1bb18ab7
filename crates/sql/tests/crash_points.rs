//! Crash-point sweep acceptance test: kill the durable engine at every
//! mutating disk operation across a family of seeded workloads, recover
//! each survivor, and hold the recovery invariants (recovered state is a
//! committed prefix; replay is idempotent). The sweep must cover at
//! least a thousand distinct kill points and report zero violations.
//! The harness, with its own unit tests, is the `crashtest` module beside
//! this file; it drives the engine through the public API only.

mod crashtest;

#[test]
fn thousand_crash_points_zero_violations() {
    let report = crashtest::sweep(0xC1A5_5E5D, 10);
    println!(
        "crash sweep: {} kill points, {} violations",
        report.crash_points,
        report.violations.len()
    );

    assert!(
        report.crash_points >= 1000,
        "sweep must cover >= 1000 kill points, got {}",
        report.crash_points
    );
    assert!(
        report.violations.is_empty(),
        "recovery invariant violations:\n{}",
        report.violations.join("\n")
    );
    assert!(report.recovered_commits > 0, "sweep never recovered a committed transaction");
    // The fault model must actually be biting: the sweep should observe
    // real damage (torn frames / bad checksums / uncommitted tails), and
    // some survivors should recover through a checkpoint snapshot rather
    // than pure log replay.
    let anomalies = report.torn_writes + report.checksum_mismatches + report.partial_commits;
    assert!(anomalies > 0, "sweep observed no disk damage at all; fault injection is dead");
    assert!(
        report.recoveries_from_snapshot > 0,
        "no survivor recovered via a checkpoint snapshot; checkpoint path is untested"
    );
}
