//! The paper-facing output is a golden: the 18 experiments in [`PAPER`]
//! (Table I … the ablation) and the bring-up check, printed the way
//! `reproduce all` prints them, must equal
//! `tests/golden/reproduce_paper.txt` at the workspace root byte for
//! byte. EXPERIMENTS.md quotes that file; Tables II and III are rendered
//! by the SQL executor, so a change there shows up here too.
//!
//! To regenerate after an *intentional* change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p rocks-bench --test paper_golden
//! ```

use rocks_bench::{bringup_summary, PAPER};
use std::path::PathBuf;

fn paper_output() -> String {
    let mut out = String::new();
    for (name, f) in PAPER {
        out.push_str(&format!("==== {name} ====\n{}\n", f()));
    }
    out.push_str(&format!("==== bring-up ====\n{}\n", bringup_summary()));
    out
}

#[test]
fn paper_output_is_golden() {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/reproduce_paper.txt");
    let output = paper_output();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &output).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {}: {e}; regenerate with UPDATE_GOLDEN=1", path.display())
    });
    for (line, (want, got)) in expected.lines().zip(output.lines()).enumerate() {
        assert_eq!(
            want,
            got,
            "reproduce_paper.txt line {} drifted; if intentional, regenerate with \
             UPDATE_GOLDEN=1 cargo test -p rocks-bench --test paper_golden",
            line + 1
        );
    }
    assert_eq!(expected, output, "paper output length changed");
}
