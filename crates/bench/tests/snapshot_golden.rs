//! The seeded sweeps' snapshots are goldens: `reproduce chaos`,
//! `rollout` and `serve` at full size must render the committed
//! `BENCH_{chaos,rollout,serve}.json` at the workspace root byte for
//! byte. The rollout sweep shrinks to 32 nodes under debug assertions,
//! so these run in release only:
//!
//! ```text
//! cargo test --release -p rocks-bench --test snapshot_golden
//! ```
//!
//! To regenerate after an *intentional* change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --release -p rocks-bench --test snapshot_golden
//! ```

use rocks_bench::{chaos, rollout, serve, SweepRun};
use std::path::PathBuf;

fn check(run: SweepRun) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join(run.file);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &run.json).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {}: {e}; regenerate with UPDATE_GOLDEN=1", path.display())
    });
    assert_eq!(
        expected, run.json,
        "{} drifted; if intentional, regenerate with UPDATE_GOLDEN=1 cargo test --release \
         -p rocks-bench --test snapshot_golden",
        run.file
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full-size sweep: run with --release")]
fn chaos_snapshot_is_golden() {
    check(chaos(false));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full-size sweep: run with --release")]
fn rollout_snapshot_is_golden() {
    check(rollout(false));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full-size sweep: run with --release")]
fn serve_snapshot_is_golden() {
    check(serve(false));
}
