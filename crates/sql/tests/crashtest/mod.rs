//! The crash-point sweep: kill the engine at *every* disk-write
//! boundary of a seeded workload and prove recovery lands on a
//! committed prefix.
//!
//! Method (per seed):
//!
//! 1. **Golden run.** Execute the workload against a pristine
//!    [`MemVfs`], recording after every commit the state fingerprint,
//!    the commit sequence number, and the VFS mutation-op count at that
//!    instant. The op count is the *durability floor*: any crash at or
//!    beyond it must recover at least that commit.
//! 2. **Sweep.** For `at_op` in `1..=total_ops`: fresh VFS armed with
//!    `CrashPlan { at_op, seed }`, rerun the identical workload until
//!    the injected crash fires, take the surviving disk image, and
//!    reopen.
//! 3. **Check.** The recovered fingerprint must be *some* golden
//!    commit's fingerprint (recovered ≡ committed prefix), the
//!    recovered seq must meet the durability floor for `at_op`,
//!    opening the survivor twice must agree (replay idempotence), and a
//!    checkpoint of the recovered survivor must reopen to the same
//!    state (the free pages recovery derived really are free).
//!
//! Every violation is recorded as a human-readable string rather than
//! panicking, so one sweep reports all damage at once.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rocks_sql::{CrashPlan, DiskError, DurableDatabase, DurableError, MemVfs};

/// One scripted action against the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Step {
    /// Auto-commit statement (or in-txn statement when one is open).
    Stmt(String),
    /// Open an explicit transaction.
    Begin,
    /// Commit the open transaction.
    Commit,
    /// Roll the open transaction back.
    Rollback,
    /// Force a checkpoint.
    Checkpoint,
}

/// A deterministic workload: cluster-flavoured DDL and DML mixing
/// auto-commits, explicit transactions, rollbacks, and checkpoints.
///
/// Odd seeds pad every `nodes` row to about a kilobyte, insert three at
/// a time, checkpoint every few transactions and add what only shows on
/// a table of many leaves: rows that outgrow their leaf, DELETEs in the
/// middle and at the tail. Their checkpoints rewrite a few leaves of a
/// dozen and land on pages an earlier checkpoint freed.
pub(crate) fn workload(seed: u64) -> Vec<Step> {
    let mut rng = StdRng::seed_from_u64(seed);
    let padded = seed % 2 == 1;
    // Even seeds draw nothing for it: their workloads are what they
    // were before there were padded ones.
    let pad = |rng: &mut StdRng| match padded {
        true => format!(", '{}'", "p".repeat(rng.gen_range(700usize..1100))),
        false => String::new(),
    };
    let mut steps = vec![
        Step::Stmt(format!(
            "create table nodes (id int, name text, rack int{})",
            if padded { ", pad text" } else { "" }
        )),
        Step::Stmt("create table ethers (node int, mac text)".into()),
    ];
    let mut next_id = 0i64;
    let txns = 22 + (seed % 7) as usize;
    for t in 0..txns {
        let explicit = rng.gen_range(0u8..4) > 0;
        if explicit {
            steps.push(Step::Begin);
        }
        for _ in 0..rng.gen_range(1usize..4) {
            let some_id = |rng: &mut StdRng| rng.gen_range(1i64..(next_id + 1).max(2));
            let stmt = match rng.gen_range(0u8..if padded { 8 } else { 5 }) {
                0..=2 => {
                    let rows: Vec<String> = (0..if padded { 3 } else { 1 })
                        .map(|_| {
                            next_id += 1;
                            format!(
                                "({next_id}, 'compute-{t}-{next_id}', {}{})",
                                rng.gen_range(0i64..8),
                                pad(&mut rng)
                            )
                        })
                        .collect();
                    format!("insert into nodes values {}", rows.join(", "))
                }
                3 => {
                    next_id += 1;
                    format!(
                        "insert into ethers values ({next_id}, 'aa:bb:00:00:{:02}:{:02}')",
                        t % 100,
                        next_id % 100
                    )
                }
                4 => format!(
                    "update nodes set rack = {} where id = {}",
                    rng.gen_range(0i64..8),
                    some_id(&mut rng)
                ),
                5 => format!(
                    "update nodes set pad = '{}' where id = {}",
                    "g".repeat(rng.gen_range(1500usize..2500)),
                    some_id(&mut rng)
                ),
                6 => format!("delete from nodes where id = {}", some_id(&mut rng)),
                _ => format!("delete from nodes where id > {}", next_id - 2),
            };
            steps.push(Step::Stmt(stmt));
        }
        if explicit {
            // Rollbacks included on purpose: a crash *during* a rollback
            // truncation must still recover to a committed prefix.
            if rng.gen_range(0u8..5) == 0 {
                steps.push(Step::Rollback);
            } else {
                steps.push(Step::Commit);
            }
        }
        if rng.gen_range(0u8..if padded { 3 } else { 8 }) == 0 {
            steps.push(Step::Checkpoint);
        }
    }
    steps
}

/// Drive `db` through `steps`. Stops early (Ok) on the injected crash;
/// any other error is a harness bug and propagates.
fn run_steps(
    db: &mut DurableDatabase,
    steps: &[Step],
    mut after_commit: impl FnMut(&DurableDatabase),
) -> Result<bool, DurableError> {
    for step in steps {
        let res = match step {
            Step::Stmt(sql) => db.execute(sql).map(|_| ()),
            Step::Begin => db.begin(),
            Step::Commit => db.commit(),
            Step::Rollback => db.rollback(),
            Step::Checkpoint => db.checkpoint(),
        };
        match res {
            Ok(()) => {
                if !db.in_txn() {
                    after_commit(db);
                }
            }
            Err(DurableError::Disk(DiskError::Crashed)) => return Ok(true),
            Err(e) => return Err(e),
        }
    }
    Ok(false)
}

/// A commit observed during the golden run.
#[derive(Debug, Clone, Copy)]
struct GoldenCommit {
    seq: u64,
    fingerprint: u64,
    /// VFS mutation ops completed when this commit's fsync returned.
    ops_after: u64,
}

/// Aggregate result of a sweep.
#[derive(Debug, Clone, Default)]
pub(crate) struct CrashSweepReport {
    /// Seeds swept.
    pub seeds: u64,
    /// Individual crash points exercised (one per mutation op per seed).
    pub crash_points: u64,
    /// Recovery-invariant violations, empty on a correct engine.
    pub violations: Vec<String>,
    /// Commits replayed from WAL across all recoveries.
    pub recovered_commits: u64,
    /// Torn-write tail anomalies classified across all recoveries.
    pub torn_writes: u64,
    /// Checksum-mismatch tail anomalies across all recoveries.
    pub checksum_mismatches: u64,
    /// Partial-commit tail anomalies across all recoveries.
    pub partial_commits: u64,
    /// Recoveries that started from a checkpoint snapshot.
    pub recoveries_from_snapshot: u64,
}

impl CrashSweepReport {
    fn absorb(&mut self, other: CrashSweepReport) {
        self.seeds += other.seeds;
        self.crash_points += other.crash_points;
        self.violations.extend(other.violations);
        self.recovered_commits += other.recovered_commits;
        self.torn_writes += other.torn_writes;
        self.checksum_mismatches += other.checksum_mismatches;
        self.partial_commits += other.partial_commits;
        self.recoveries_from_snapshot += other.recoveries_from_snapshot;
    }
}

/// Sweep every crash point of one seed's workload.
pub(crate) fn sweep_seed(seed: u64) -> CrashSweepReport {
    let steps = workload(seed);
    let mut report = CrashSweepReport { seeds: 1, ..Default::default() };

    // Golden run: no crash plan, record the committed timeline.
    let vfs = MemVfs::new();
    let mut golden: Vec<GoldenCommit> = Vec::new();
    {
        let mut db = DurableDatabase::open(&vfs).expect("golden open");
        let crashed = run_steps(&mut db, &steps, |db| {
            golden.push(GoldenCommit {
                seq: db.seq(),
                fingerprint: db.state_fingerprint(),
                ops_after: vfs.ops(),
            });
        })
        .expect("golden run");
        assert!(!crashed, "golden run must not crash");
    }
    let total_ops = vfs.ops();
    let empty_fp = DurableDatabase::open(&MemVfs::new()).expect("fresh").state_fingerprint();
    let committed: std::collections::HashSet<u64> =
        golden.iter().map(|c| c.fingerprint).chain([empty_fp]).collect();

    for at_op in 1..=total_ops {
        report.crash_points += 1;
        let vfs = MemVfs::new();
        vfs.arm(CrashPlan { at_op, seed: seed.wrapping_mul(0x9E37_79B9) ^ at_op });
        let crashed = {
            let mut db = match DurableDatabase::open(&vfs) {
                Ok(db) => db,
                Err(DurableError::Disk(DiskError::Crashed)) => {
                    // Crash during the very first (empty) open: the
                    // survivor must still open to the empty state.
                    check_survivor(&vfs, seed, at_op, &committed, &golden, &mut report);
                    continue;
                }
                Err(e) => {
                    report.violations.push(format!(
                        "seed {seed} at_op {at_op}: initial open failed non-crash: {e}"
                    ));
                    continue;
                }
            };
            match run_steps(&mut db, &steps, |_| {}) {
                Ok(c) => c,
                Err(e) => {
                    report
                        .violations
                        .push(format!("seed {seed} at_op {at_op}: workload failed non-crash: {e}"));
                    continue;
                }
            }
        };
        if !crashed {
            report.violations.push(format!(
                "seed {seed} at_op {at_op}: plan never fired (total_ops {total_ops})"
            ));
            continue;
        }
        check_survivor(&vfs, seed, at_op, &committed, &golden, &mut report);
    }
    report
}

/// Open the crashed disk image and enforce the three recovery
/// invariants (committed prefix, durability floor, idempotence).
fn check_survivor(
    vfs: &MemVfs,
    seed: u64,
    at_op: u64,
    committed: &std::collections::HashSet<u64>,
    golden: &[GoldenCommit],
    report: &mut CrashSweepReport,
) {
    let survivor = vfs.survivor();
    let db = match DurableDatabase::open(&survivor) {
        Ok(db) => db,
        Err(e) => {
            report.violations.push(format!("seed {seed} at_op {at_op}: recovery failed: {e}"));
            return;
        }
    };
    let fp = db.state_fingerprint();
    if !committed.contains(&fp) {
        report.violations.push(format!(
            "seed {seed} at_op {at_op}: recovered state (seq {}) is not a committed prefix",
            db.seq()
        ));
    }
    // Durability floor: every commit whose fsync completed strictly
    // before the crash op must survive.
    let floor = golden.iter().filter(|c| c.ops_after < at_op).map(|c| c.seq).max().unwrap_or(0);
    if db.seq() < floor {
        report.violations.push(format!(
            "seed {seed} at_op {at_op}: recovered seq {} below durability floor {floor}",
            db.seq()
        ));
    }
    let rec = db.recovery_report();
    report.recovered_commits += rec.commits_replayed;
    let (torn, cksum, partial) = rec.anomaly_counts();
    report.torn_writes += torn;
    report.checksum_mismatches += cksum;
    report.partial_commits += partial;
    if rec.checkpoint_seq > 0 {
        report.recoveries_from_snapshot += 1;
    }
    // Idempotence: the first open repaired the tail; a second open of
    // the same (now-clean) image must land on the identical state.
    drop(db);
    let mut db2 = match DurableDatabase::open(&survivor) {
        Ok(db2) => db2,
        Err(e) => {
            report
                .violations
                .push(format!("seed {seed} at_op {at_op}: second recovery failed: {e}"));
            return;
        }
    };
    if db2.state_fingerprint() != fp {
        report
            .violations
            .push(format!("seed {seed} at_op {at_op}: second recovery diverged from first"));
    }
    if !db2.recovery_report().anomalies.is_empty() {
        report.violations.push(format!(
            "seed {seed} at_op {at_op}: anomalies persisted past the repair truncation"
        ));
    }
    // The survivor goes on living: its next checkpoint writes into the
    // pages recovery found unreachable (among them whatever the killed
    // checkpoint left behind) and must not damage one that is reachable.
    let reopened = db2.checkpoint().and_then(|()| {
        drop(db2);
        DurableDatabase::open(&survivor)
    });
    match reopened {
        Ok(db3) if db3.state_fingerprint() == fp => {}
        Ok(_) => report.violations.push(format!(
            "seed {seed} at_op {at_op}: a checkpoint of the survivor reopened to another state"
        )),
        Err(e) => report.violations.push(format!(
            "seed {seed} at_op {at_op}: checkpoint and reopen of the survivor failed: {e}"
        )),
    }
}

/// Sweep a batch of seeds: `base_seed..base_seed + seeds`.
pub(crate) fn sweep(base_seed: u64, seeds: u64) -> CrashSweepReport {
    let mut total = CrashSweepReport::default();
    for s in 0..seeds {
        total.absorb(sweep_seed(base_seed + s));
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic() {
        assert_eq!(workload(7), workload(7));
        assert_ne!(workload(7), workload(8));
    }

    #[test]
    fn workload_exercises_every_step_kind() {
        let steps: Vec<Step> = (0..4).flat_map(workload).collect();
        assert!(steps.iter().any(|s| matches!(s, Step::Begin)));
        assert!(steps.iter().any(|s| matches!(s, Step::Commit)));
        assert!(steps.iter().any(|s| matches!(s, Step::Rollback)));
        assert!(steps.iter().any(|s| matches!(s, Step::Checkpoint)));
    }

    #[test]
    fn single_seed_sweep_is_clean() {
        for seed in [1, 2] {
            let report = sweep_seed(seed);
            assert!(report.crash_points > 50, "workload too small: {report:?}");
            assert!(report.violations.is_empty(), "violations: {:#?}", report.violations);
            assert!(report.recovered_commits > 0);
        }
    }

    /// The padded workloads are there to put checkpoints on tables of
    /// many leaves and into freed pages; hold them to it.
    #[test]
    fn padded_workloads_span_leaves_and_reuse_freed_pages() {
        use rocks_sql::PAGE_SIZE;
        for seed in (1..16).step_by(2) {
            let vfs = MemVfs::new();
            let mut db = DurableDatabase::open(&vfs).unwrap();
            let data_pages = || vfs.stable_bytes("data").map_or(0, |b| b.len() / PAGE_SIZE);
            let (mut most_pages, mut into_freed, mut partial) = (0, 0, 0);
            for step in workload(seed) {
                let before = (data_pages(), db.stats().checkpoint_pages());
                run_steps(&mut db, std::slice::from_ref(&step), |_| {}).unwrap();
                let written = (db.stats().checkpoint_pages() - before.1) as usize;
                if written == 0 {
                    continue;
                }
                most_pages = most_pages.max(data_pages());
                into_freed += usize::from(data_pages() < before.0 + written);
                partial += usize::from(written + 2 < data_pages());
            }
            assert!(most_pages >= 8 + 2, "seed {seed}: only {most_pages} pages");
            assert!(into_freed >= 3, "seed {seed}: {into_freed} checkpoints into freed pages");
            assert!(partial >= 3, "seed {seed}: {partial} checkpoints that kept most pages");
        }
    }
}
