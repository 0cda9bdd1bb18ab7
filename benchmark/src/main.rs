//! One wall-clock ledger for rocks-rs: five workloads, end-to-end and
//! per-layer metrics, every layer timed from outside through its public
//! functions. See `README.md` beside this package.
//!
//! ```text
//! rocks-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload in this process; the last line of output is the result
//! rocks-benchmark [--passes N] [--trace 1] [--seed n] [--seconds s] [--out file]
//!     every workload, each in a fresh child process, pass after pass
//! rocks-benchmark --smoke
//!     every workload and every layer probe at 1/50 size, in this process
//! rocks-benchmark compare <a> <b>
//!     two result files (or directories of them) under the bounds
//! rocks-benchmark spec
//!     the metric tables as BENCHMARK.json
//! ```

mod compare;
mod estimator;
mod ingest;
mod json;
mod ks;
mod query;
mod run;
mod sim;
mod spec;
mod trace;
mod util;

use estimator::{Better, Lane, Summary};
use json::Json;
use run::{Check, Layers, Outcome, Run};
use spec::Family;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use trace::Recorder;

/// Fixture builds per untraced run: before the measuring window and
/// again after it, each time at least two and then until 0.6 s have gone
/// into them, so that one moment of the host's drifting speed does not
/// set `setup_s`. It is reduced like every other time: the host's slow
/// state makes a build 1.6 times longer, and the median of the builds
/// says which state the host was mostly in.
const SETUP_SECONDS: f64 = 0.6;
const SETUP: Lane = Lane::new(1.0, 2, 60);

/// Where traces and results go: `benchmark/out/`, inside the checkout.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One workload family's fixture.
enum Fixture {
    Ks(ks::Fixture),
    Ingest(ingest::Fixture),
    Query(query::Fixture),
    Sim(sim::Fixture),
}

impl Fixture {
    fn build(family: Family, run: &Run) -> Fixture {
        match family {
            Family::Ks => Fixture::Ks(ks::build(run)),
            Family::Ingest => Fixture::Ingest(ingest::build(run)),
            Family::Query => Fixture::Query(query::build(run)),
            Family::Sim => Fixture::Sim(sim::build(run)),
            Family::Any => unreachable!("no workload belongs to every family"),
        }
    }

    /// One pass of `workload` over this fixture.
    fn pass(&mut self, workload: &str, run: &Run, rec: &Recorder) -> Outcome {
        match self {
            Fixture::Ks(fx) if workload == "ks-churn" => ks::churn(fx, run, rec),
            Fixture::Ks(fx) => ks::warm(fx, run, rec),
            Fixture::Ingest(fx) => ingest::run(fx, run, rec),
            Fixture::Query(fx) => query::run(fx, run, rec),
            Fixture::Sim(fx) => sim::run(fx, run, rec),
        }
    }

    /// The family's per-layer metrics, measured on this fixture.
    fn layers(&mut self, run: &Run, rec: &Recorder, check: &mut Check, out: &mut Layers) {
        match self {
            Fixture::Ks(fx) => ks::layers(fx, run, rec, check, out),
            Fixture::Ingest(fx) => ingest::layers(fx, rec, check, out),
            Fixture::Query(fx) => query::layers(fx, rec, check, out),
            Fixture::Sim(fx) => sim::layers(fx, run, rec, check, out),
        }
    }

    /// Checks made once per run, outside every clock.
    fn verify(&self, check: &mut Check) {
        if let Fixture::Query(fx) = self {
            query::verify_pool(fx, check);
        }
    }
}

/// What one run of one workload produced.
struct WorkloadResult {
    workload: String,
    family: Family,
    seed: u64,
    traced: bool,
    metrics: Vec<(&'static str, &'static str, Summary)>,
    check: Check,
}

impl WorkloadResult {
    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    fn line(&self) -> String {
        let metrics = self.metrics.iter().map(|(name, unit, s)| {
            (*name, Json::obj([("value", Json::Num(s.value)), ("unit", Json::str(*unit))]))
        });
        Json::obj([
            ("correct", Json::Bool(self.check.failed == 0)),
            ("attempted", Json::Num(self.check.attempted.max(1) as f64)),
            ("failed", Json::Num(self.check.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .to_line()
    }

    /// Everything, for the pass runner and the result file.
    fn detail(&self) -> Json {
        let metrics = self.metrics.iter().map(|(name, unit, s)| {
            (
                *name,
                Json::obj([
                    ("value", Json::Num(s.value)),
                    ("unit", Json::str(*unit)),
                    ("median", Json::Num(s.median)),
                    ("q1", Json::Num(s.q1)),
                    ("q3", Json::Num(s.q3)),
                    ("rounds", Json::Num(s.rounds as f64)),
                ]),
            )
        });
        Json::obj([
            ("workload", Json::str(&self.workload)),
            ("seed", Json::str(self.seed.to_string())),
            ("traced", Json::Bool(self.traced)),
            ("attempted", Json::Num(self.check.attempted as f64)),
            ("failed", Json::Num(self.check.failed as f64)),
            ("notes", Json::Arr(self.check.notes.iter().map(Json::str).collect())),
            ("metrics", Json::obj(metrics)),
        ])
    }

    fn print(&self) {
        let index = spec::workload_index(&self.workload);
        for (name, unit, s) in &self.metrics {
            let w = &self.workload;
            if let Some(layer) = spec::PER_LAYER.iter().find(|l| l.name == *name) {
                // A layer this workload never enters is measured on a
                // smoke-size fixture; say so beside the number.
                let at =
                    if [self.family, Family::Any].contains(&layer.home) { "full" } else { "smoke" };
                let exact = if layer.exact { " exact" } else { "" };
                println!(
                    "{w:<14} {name:<40} {:>16.4} {unit:<6} at {at:<5}{exact} -> {}",
                    s.value, layer.moves
                );
                continue;
            }
            let alias = match (spec::end_to_end(name), index) {
                (Some(m), Some(i)) if m.on[i].0 != "all" => format!("  = {}", m.on[i].0),
                _ => String::new(),
            };
            println!(
                "{w:<14} {name:<40} {:>16.4} {unit:<6} median {:.4} q1 {:.4} q3 {:.4} rounds {}{alias}",
                s.value, s.median, s.q1, s.q3, s.rounds
            );
        }
        for note in &self.check.notes {
            println!("{:<14} FAILED: {note}", self.workload);
        }
        println!(
            "{:<14} failed_share {} / {}",
            self.workload, self.check.failed, self.check.attempted
        );
    }
}

/// The untraced run: set-up several times, one full pass, and what the
/// process cost.
fn run_untraced(workload: &str, family: Family, run: &Run) -> WorkloadResult {
    let lane = if run.is_smoke() { Lane::new(1.0, 1, 1) } else { SETUP };
    let (mut fx, mut builds) = run::setup(SETUP_SECONDS, lane, || Fixture::build(family, run));
    let mut out = fx.pass(workload, run, &Recorder::disabled());
    fx.verify(&mut out.check);
    drop(fx);
    if !run.is_smoke() {
        builds.extend(run::setup(SETUP_SECONDS, lane, || Fixture::build(family, run)).1);
    }
    out.put("setup_s", &builds, Better::Lower);
    // Where /proc is missing the metric is still reported, as a value no
    // comparison can pass by accident.
    out.metrics.insert("peak_rss_mb", Summary::single(out.floor_rss_mb.unwrap_or(f64::MAX)));
    let metrics = spec::END_TO_END
        .iter()
        .map(|m| {
            let s = out.metrics.get(m.name).unwrap_or_else(|| panic!("{workload}: no {}", m.name));
            (m.name, m.unit, *s)
        })
        .collect();
    WorkloadResult {
        workload: workload.into(),
        family,
        seed: run.seed,
        traced: false,
        metrics,
        check: out.check,
    }
}

/// The traced run: the workload's own pass at one-fifth length with the
/// recorder off and on (their difference is the tracing overhead), then
/// every family's layer probe — on this workload's fixture at full size
/// for its own family, on a smoke-size fixture for the others, so that
/// every per-layer metric is a measurement on every workload.
fn run_traced(workload: &str, family: Family, run: &Run) -> WorkloadResult {
    let rec = Recorder::enabled();
    let mut check = Check::default();
    let mut layers = Layers::new();

    let mut fx = Fixture::build(family, run);
    let short = run.fifth();
    let (off, off_ns) = util::timed(|| fx.pass(workload, &short, &Recorder::disabled()));
    let (on, on_ns) = util::timed(|| fx.pass(workload, &short, &rec));
    check.merge(off.check);
    check.merge(on.check);
    layers.insert("trace.overhead_pct", (on_ns - off_ns) / off_ns * 100.0);

    fx.layers(run, &rec, &mut check, &mut layers);
    drop(fx);
    let smoke = Run::smoke(run.seed);
    for other in [Family::Ks, Family::Ingest, Family::Query, Family::Sim] {
        if other != family {
            Fixture::build(other, &smoke).layers(&smoke, &rec, &mut check, &mut layers);
        }
    }

    write_trace(workload, &rec);
    let metrics = spec::PER_LAYER
        .iter()
        .map(|m| {
            let v = layers.get(m.name).unwrap_or_else(|| panic!("{workload}: no {}", m.name));
            (m.name, m.unit, Summary::single(*v))
        })
        .collect();
    WorkloadResult {
        workload: workload.into(),
        family,
        seed: run.seed,
        traced: true,
        metrics,
        check,
    }
}

/// `out/trace-<workload>.json`: per-name totals with self time, then
/// every span.
fn write_trace(workload: &str, rec: &Recorder) {
    let times = trace::layer_times(&rec.spans());
    let totals = times.iter().map(|(name, t)| {
        (
            *name,
            Json::obj([
                ("calls", Json::Num(t.calls as f64)),
                ("total_ns", Json::Num(t.total_ns as f64)),
                ("self_ns", Json::Num(t.self_ns as f64)),
            ]),
        )
    });
    let text = format!(
        "{{\"workload\":\"{workload}\",\"layers\":{},\"spans\":{}}}\n",
        Json::obj(totals).to_line(),
        rec.to_json()
    );
    let path = out_dir().join(format!("trace-{workload}.json"));
    let written = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, text));
    match written {
        Ok(()) => println!("{workload:<14} trace: {} spans in {}", rec.len(), path.display()),
        Err(e) => eprintln!("{workload}: cannot write {}: {e}", path.display()),
    }
}

fn run_workload(workload: &str, run: &Run, traced: bool) -> Result<WorkloadResult, String> {
    let family = spec::family_of(workload).ok_or_else(|| {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {workload:?}; one of {names:?}")
    })?;
    Ok(if traced { run_traced(workload, family, run) } else { run_untraced(workload, family, run) })
}

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    passes: usize,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec::DEFAULT_SECONDS,
        trace: false,
        passes: 1,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot read {value:?}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value.clone()),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds =
                    value.parse().ok().filter(|s| (0.0..=60.0).contains(s)).ok_or_else(bad)?;
            }
            "--trace" => parsed.trace = matches!(value.as_str(), "1" | "true"),
            "--passes" => parsed.passes = value.parse().ok().filter(|p| *p >= 1).ok_or_else(bad)?,
            "--out" => parsed.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(parsed)
}

/// One line of a shell command's output, or "unknown".
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// Every workload, each in a fresh child process of this binary, pass
/// after pass (A B C D E, A B C D E, ...), into one stamped result file.
fn run_passes(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let mut all_correct = true;
    let mut passes = Vec::new();
    for pass in 0..args.passes {
        let mut results = Vec::new();
        for w in &spec::WORKLOADS {
            for traced in [false, true] {
                if traced && !args.trace {
                    continue;
                }
                let output = Command::new(&exe)
                    .args(["--workload", w.name, "--seed", &args.seed.to_string()])
                    .args(["--seconds", &args.seconds.to_string()])
                    .args(["--trace", if traced { "1" } else { "0" }])
                    .output()
                    .map_err(|e| format!("cannot start {}: {e}", w.name))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                let detail = stdout
                    .lines()
                    .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
                    .and_then(|l| json::parse(l).ok())
                    .filter(|_| output.status.success())
                    .ok_or_else(|| {
                        format!(
                            "{} failed:\n{stdout}{}",
                            w.name,
                            String::from_utf8_lossy(&output.stderr)
                        )
                    })?;
                for line in stdout.lines().filter(|l| l.starts_with(w.name)) {
                    println!("pass {pass}  {line}");
                }
                all_correct &= detail.get("failed").and_then(Json::as_f64) == Some(0.0);
                results.push(detail);
            }
        }
        passes.push(Json::Arr(results));
    }
    let result = Json::obj([
        ("benchmark", Json::str("rocks-benchmark")),
        ("commit", Json::str(tool_line("git", &["rev-parse", "HEAD"]))),
        ("rustc", Json::str(tool_line("rustc", &["-V"]))),
        ("profile", Json::str(if cfg!(debug_assertions) { "debug" } else { "release" })),
        ("nproc", Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64)),
        ("load_threads", Json::Num(util::load_threads() as f64)),
        ("seed", Json::str(args.seed.to_string())),
        ("seconds", Json::Num(args.seconds)),
        ("passes", Json::Arr(passes)),
    ]);
    let path =
        args.out.clone().unwrap_or_else(|| out_dir().join(format!("result-{}.json", args.seed)));
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(&path, result.to_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("result: {}", path.display());
    Ok(all_correct)
}

/// Every workload and every layer probe at 1/50 size, in this process.
fn run_smoke(seed: u64) -> Result<bool, String> {
    let run = Run::smoke(seed);
    let mut all_correct = true;
    for (i, w) in spec::WORKLOADS.iter().enumerate() {
        let result = run_workload(w.name, &run, false)?;
        result.print();
        all_correct &= result.check.failed == 0;
        // One traced run reaches every family's probe.
        if i == 0 {
            let traced = run_workload(w.name, &run, true)?;
            traced.print();
            all_correct &= traced.check.failed == 0;
        }
    }
    Ok(all_correct)
}

const DETAIL_PREFIX: &str = "#detail ";

fn main_inner() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = args.as_slice() else {
                return Err("usage: compare <a.json|dir> <b.json|dir>".into());
            };
            return compare::run(Path::new(a), Path::new(b));
        }
        Some("spec") => {
            print!("{}", spec::benchmark_json().to_pretty());
            return Ok(true);
        }
        _ => {}
    }
    let args = parse_args(&args)?;
    if args.smoke {
        return run_smoke(args.seed);
    }
    let Some(workload) = &args.workload else {
        return run_passes(&args);
    };
    let run = Run::full(args.seed, args.seconds);
    let result = run_workload(workload, &run, args.trace)?;
    result.print();
    println!("{DETAIL_PREFIX}{}", result.detail().to_line());
    println!("{}", result.line());
    // An incorrect run is still a result; the line says so.
    Ok(true)
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("rocks-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All five workloads and all four layer probes at 1/50 size: API
    /// drift in `crates/*` fails here, loudly and quickly.
    #[test]
    fn smoke_pass_is_correct_and_complete() {
        let run = Run::smoke(7);
        for w in &spec::WORKLOADS {
            let r = run_workload(w.name, &run, false).unwrap();
            assert_eq!(r.check.failed, 0, "{}: {:?}", w.name, r.check.notes);
            assert!(r.check.attempted > 0, "{} checked nothing", w.name);
            assert_eq!(r.metrics.len(), spec::END_TO_END.len());
            for (name, _, s) in &r.metrics {
                assert!(s.value.is_finite() && s.value > 0.0, "{} {name} = {}", w.name, s.value);
            }
            let parsed = json::parse(&r.line()).unwrap();
            let keys: Vec<&str> =
                parsed.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        }
        let traced = run_workload("ks-churn", &run, true).unwrap();
        assert_eq!(traced.check.failed, 0, "{:?}", traced.check.notes);
        assert_eq!(traced.metrics.len(), spec::PER_LAYER.len());
        for (name, _, s) in &traced.metrics {
            assert!(s.value.is_finite(), "{name} = {}", s.value);
        }
    }

    #[test]
    fn exact_layer_counts_repeat_for_one_seed() {
        let run = Run::smoke(11);
        let a = run_workload("sim-reinstall", &run, true).unwrap();
        let b = run_workload("sim-reinstall", &run, true).unwrap();
        for ((name, _, x), (_, _, y)) in a.metrics.iter().zip(&b.metrics) {
            let exact = spec::PER_LAYER.iter().any(|m| m.name == *name && m.exact);
            assert!(!exact || x.value == y.value, "{name}: {} then {}", x.value, y.value);
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&args("--workload ks-warm --seed 5 --seconds 2 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("ks-warm"), 5, 2.0, true)
        );
        assert!(!parse_args(&args("--trace 0")).unwrap().trace);
        assert!(parse_args(&args("--seed")).is_err());
        assert!(parse_args(&args("--seed x")).is_err());
        assert!(parse_args(&args("--seconds 600")).is_err());
        assert!(parse_args(&args("--passes 0")).is_err());
        assert!(parse_args(&args("--frobnicate 1")).is_err());
        assert!(run_workload("no-such", &Run::smoke(1), false).is_err());
    }
}
