//! `compare <a> <b>`: two result files, or directories of them, under
//! the bounds of the end-to-end metrics.
//!
//! One row per (metric, workload): each side's median over its runs,
//! the ratio with its base, and a verdict. A metric is a regression when
//! `b` is worse than `a` by more than the bound. Where the spread
//! between runs (or, with one run a side, between that run's rounds) is
//! wider than the bound the metric is unresolved, not unchanged — unless
//! every run of one side reads better than every run of the other.

use crate::estimator::{quartiles, Better};
use crate::json::{self, Json};
use crate::spec;
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Clone, Copy, Debug)]
struct Sample {
    value: f64,
    /// Quartiles over the run's rounds.
    q1: f64,
    q3: f64,
}

#[derive(Debug, Default)]
struct Side {
    /// (workload, metric) → one sample per untraced run.
    end_to_end: BTreeMap<(String, String), Vec<Sample>>,
    /// (workload, metric) → one value per traced run.
    per_layer: BTreeMap<(String, String), Vec<f64>>,
    failed: f64,
    runs: usize,
}

fn load_file(path: &Path, side: &mut Side) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let passes = doc
        .get("passes")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: no \"passes\"", path.display()))?;
    for run in passes.iter().filter_map(Json::as_arr).flatten() {
        let (Some(workload), Some(metrics)) =
            (run.get("workload").and_then(Json::as_str), run.get("metrics").and_then(Json::as_obj))
        else {
            return Err(format!("{}: a run without workload or metrics", path.display()));
        };
        side.runs += 1;
        side.failed += run.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        let traced = run.get("traced") == Some(&Json::Bool(true));
        for (name, m) in metrics {
            let num = |key: &str| m.get(key).and_then(Json::as_f64);
            let Some(value) = num("value") else { continue };
            let key = (workload.to_string(), name.clone());
            if traced {
                side.per_layer.entry(key).or_default().push(value);
            } else {
                let sample = Sample {
                    value,
                    q1: num("q1").unwrap_or(value),
                    q3: num("q3").unwrap_or(value),
                };
                side.end_to_end.entry(key).or_default().push(sample);
            }
        }
    }
    Ok(())
}

fn load(path: &Path) -> Result<Side, String> {
    let mut side = Side::default();
    if path.is_dir() {
        let mut files: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("cannot list {}: {e}", path.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .filter(|p| p.file_name().is_some_and(|n| n.to_string_lossy().starts_with("result")))
            .collect();
        files.sort();
        for file in files {
            load_file(&file, &mut side)?;
        }
    } else {
        load_file(path, &mut side)?;
    }
    if side.runs == 0 {
        return Err(format!("{}: no runs", path.display()));
    }
    Ok(side)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    Ok,
    Better,
    Unresolved,
    Regression,
}

#[derive(Debug)]
struct Row {
    a: f64,
    b: f64,
    /// Share of `a` by which `b` is worse; negative when better.
    worse: f64,
    /// Widest spread of either side, as a share of `a`.
    spread: f64,
    verdict: Verdict,
}

/// Spread of one side: between runs when there are several, between the
/// one run's rounds otherwise.
fn side_iqr(samples: &[Sample]) -> f64 {
    match samples {
        [one] => one.q3 - one.q1,
        many => {
            let (q1, _, q3) = quartiles(&many.iter().map(|s| s.value).collect::<Vec<_>>());
            q3 - q1
        }
    }
}

fn judge(a: &[Sample], b: &[Sample], better: Better, bound: f64) -> Row {
    let values = |s: &[Sample]| s.iter().map(|x| x.value).collect::<Vec<_>>();
    let (va, vb) = (values(a), values(b));
    let (a_med, b_med) = (quartiles(&va).1, quartiles(&vb).1);
    let base = a_med.abs().max(f64::MIN_POSITIVE);
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let worse = sign * (b_med - a_med) / base;
    let spread = side_iqr(a).max(side_iqr(b)) / base;
    // Does every run of one side beat every run of the other?
    let all_b_worse = vb.iter().all(|y| va.iter().all(|x| sign * (y - x) > 0.0));
    let all_b_better = vb.iter().all(|y| va.iter().all(|x| sign * (y - x) < 0.0));
    let verdict = if worse > bound {
        if spread > bound && !all_b_worse {
            Verdict::Unresolved
        } else {
            Verdict::Regression
        }
    } else if spread > bound && !all_b_better {
        Verdict::Unresolved
    } else if worse < -spread.max(f64::EPSILON) && all_b_better {
        Verdict::Better
    } else {
        Verdict::Ok
    };
    Row { a: a_med, b: b_med, worse, spread, verdict }
}

/// Compare and print. `Ok(false)` on a regression or a failed operation.
pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!(
        "a = {} ({} runs)   b = {} ({} runs)",
        a_path.display(),
        a.runs,
        b_path.display(),
        b.runs
    );
    println!(
        "{:<14} {:<12} {:>14} {:>14} {:>9} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "a", "b", "b/a", "worse", "bound", "spread"
    );
    let mut passed = true;
    for w in &spec::WORKLOADS {
        for m in &spec::END_TO_END {
            let key = (w.name.to_string(), m.name.to_string());
            let (Some(sa), Some(sb)) = (a.end_to_end.get(&key), b.end_to_end.get(&key)) else {
                println!("{:<14} {:<12} missing on one side", w.name, m.name);
                passed = false;
                continue;
            };
            let row = judge(sa, sb, m.better, m.bound);
            passed &= row.verdict != Verdict::Regression;
            println!(
                "{:<14} {:<12} {:>14.4} {:>14.4} {:>9.4} {:>+7.1}% {:>6.0}% {:>6.1}%  {:?}",
                w.name,
                m.name,
                row.a,
                row.b,
                row.b / row.a,
                row.worse * 100.0,
                m.bound * 100.0,
                row.spread * 100.0,
                row.verdict
            );
        }
    }
    // Exact counts: identical within a side and across sides, or moved.
    for m in spec::PER_LAYER.iter().filter(|m| m.exact) {
        for w in &spec::WORKLOADS {
            let key = (w.name.to_string(), m.name.to_string());
            let (Some(va), Some(vb)) = (a.per_layer.get(&key), b.per_layer.get(&key)) else {
                continue;
            };
            let same = va.iter().chain(vb).all(|v| *v == va[0]);
            if !same {
                println!("{:<14} {:<40} MOVED: a {:?} b {:?}", w.name, m.name, va, vb);
            }
        }
    }
    for (name, side) in [("a", &a), ("b", &b)] {
        if side.failed > 0.0 {
            println!("{name}: {} operations failed or came back wrong", side.failed);
            passed = false;
        }
    }
    println!("{}", if passed { "no regression" } else { "REGRESSION or failed operations" });
    Ok(passed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(values: &[f64]) -> Vec<Sample> {
        values.iter().map(|&value| Sample { value, q1: value * 0.99, q3: value * 1.01 }).collect()
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let steady = runs(&[100.0, 101.0, 99.0]);
        // Within the bound.
        let r = judge(&steady, &runs(&[104.0, 105.0, 103.0]), Better::Lower, 0.10);
        assert_eq!(r.verdict, Verdict::Ok);
        assert!((r.worse - 0.04).abs() < 1e-9 && (r.b / r.a - 1.04).abs() < 1e-9);
        // Worse by more than the bound, tight spread.
        let r = judge(&steady, &runs(&[120.0, 121.0, 119.0]), Better::Lower, 0.10);
        assert_eq!(r.verdict, Verdict::Regression);
        // The same numbers are an improvement for a throughput.
        let r = judge(&steady, &runs(&[120.0, 121.0, 119.0]), Better::Higher, 0.10);
        assert_eq!(r.verdict, Verdict::Better);
        let r = judge(&steady, &runs(&[80.0, 81.0, 79.0]), Better::Higher, 0.10);
        assert_eq!(r.verdict, Verdict::Regression);
        // Spread wider than the bound and the sides interleave: unresolved.
        let noisy = runs(&[100.0, 140.0, 90.0, 125.0]);
        let r = judge(&noisy, &runs(&[130.0, 95.0, 135.0, 128.0]), Better::Lower, 0.10);
        assert_eq!(r.verdict, Verdict::Unresolved);
        // Wide spread, but every run of b is worse than every run of a.
        let r = judge(&noisy, &runs(&[150.0, 190.0, 160.0, 175.0]), Better::Lower, 0.10);
        assert_eq!(r.verdict, Verdict::Regression);
    }

    #[test]
    fn one_run_a_side_uses_its_round_quartiles() {
        let a = [Sample { value: 100.0, q1: 100.0, q3: 130.0 }];
        let b = [Sample { value: 105.0, q1: 105.0, q3: 106.0 }];
        let r = judge(&a, &b, Better::Lower, 0.10);
        assert!((r.spread - 0.30).abs() < 1e-9);
        assert_eq!(r.verdict, Verdict::Unresolved);
    }

    #[test]
    fn result_files_load_by_workload_and_metric() {
        let dir =
            std::env::temp_dir().join(format!("rocks-benchmark-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let run = |value: f64, failed: f64| {
            Json::obj([
                ("workload", Json::str("ks-warm")),
                ("traced", Json::Bool(false)),
                ("failed", Json::Num(failed)),
                (
                    "metrics",
                    Json::obj(spec::END_TO_END.iter().map(|m| {
                        (
                            m.name,
                            Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))]),
                        )
                    })),
                ),
            ])
        };
        let file = |run: Json| Json::obj([("passes", Json::Arr(vec![Json::Arr(vec![run])]))]);
        std::fs::write(dir.join("result-a.json"), file(run(10.0, 0.0)).to_pretty()).unwrap();
        std::fs::write(dir.join("result-b.json"), file(run(10.5, 3.0)).to_pretty()).unwrap();
        let side = load(&dir).unwrap();
        assert_eq!((side.runs, side.failed), (2, 3.0));
        assert_eq!(side.end_to_end[&("ks-warm".into(), "bulk_ms".into())].len(), 2);
        assert!(load(&dir.join("missing.json")).is_err());
        // Other workloads are missing from these files and b has failed
        // operations: not a pass.
        assert_eq!(run_paths(&dir), Ok(false));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn run_paths(dir: &Path) -> Result<bool, String> {
        run(&dir.join("result-a.json"), &dir.join("result-b.json"))
    }
}
