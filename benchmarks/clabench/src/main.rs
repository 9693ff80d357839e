//! `clabench`: the repository's benchmark. See `README.md` beside this
//! package for the metric and workload tables.
//!
//! ```text
//! clabench [run] --workload NAME | --all  [--seed N] [--seconds S]
//!                [--trace [0|1]] [--quick] [--out FILE]
//! clabench check [--quick] [--seed N]
//! clabench compare A.json B.json
//! ```
//!
//! A single-workload run ends with one JSON line on stdout:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`
//! — the end-to-end metrics untraced, the per-layer metrics with `--trace`.

mod check;
mod child;
mod inputs;
mod metrics;
mod oracle;
mod pinned;
mod run;
mod stats;
mod trace;
mod traced;

use cla::serve::json::{obj, Value};
use metrics::{Metrics, WORKLOADS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// How long one run measures unless `--seconds` says otherwise; equal to
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 12;

/// Compile workers, and client threads of `hub_queries`.
pub fn jobs() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2)
}

/// What one run of one workload is given.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub sizes: inputs::Sizes,
    pub jobs: usize,
    /// Scratch directory of this run, emptied by [`Ctx::fresh_work`] and
    /// removed when the run ends, however it ends.
    pub work: PathBuf,
    /// Where results that outlive the run go (`<target>/clabench`).
    pub keep: PathBuf,
}

impl Ctx {
    pub fn fresh_work(&self) -> Result<(), String> {
        let _ = std::fs::remove_dir_all(&self.work);
        std::fs::create_dir_all(&self.work).map_err(|e| format!("{}: {e}", self.work.display()))
    }
}

/// `<target>/clabench/<pid>/`: every scratch file of this process. Dropping
/// it removes the directory, so a run that succeeds, fails or panics leaves
/// nothing behind.
pub struct Scratch {
    keep: PathBuf,
    root: PathBuf,
}

impl Scratch {
    /// The build directory is found from where cargo put this executable
    /// (`<target>/<profile>/clabench`), so nothing is written outside it.
    pub fn new() -> Result<Scratch, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let target = exe
            .parent()
            .and_then(Path::parent)
            .ok_or_else(|| format!("{} is not inside a target directory", exe.display()))?;
        let keep = target.join("clabench");
        let root = keep.join(std::process::id().to_string());
        Ok(Scratch { keep, root })
    }

    pub fn ctx(&self, seed: u64, seconds: f64, quick: bool, workload: &str) -> Ctx {
        Ctx {
            seed,
            seconds,
            quick,
            sizes: inputs::sizes(quick),
            jobs: jobs(),
            work: self.root.join(workload),
            keep: self.keep.clone(),
        }
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// What one run of one workload brings back.
pub struct Outcome {
    /// Operations and checks attempted, and how many of them failed, were
    /// refused, or gave a wrong answer.
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the human reading the output.
    pub failures: Vec<String>,
    pub metrics: Metrics,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(metrics: Metrics) -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics,
            notes: Vec::new(),
        }
    }

    /// Counts one failed operation (already counted as attempted).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Counts one check of the program's output.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The line the driver reads.
    pub fn to_json(&self) -> Value {
        obj([
            ("correct", self.correct().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", self.metrics.to_json()),
        ])
    }

    fn print(&self, workload: &str, traced: bool) {
        let mode = if traced { "trace" } else { "end to end" };
        let why = WORKLOADS
            .iter()
            .find(|w| w.name == workload)
            .map_or("", |w| w.why);
        println!("== {workload} ({mode}): {why} ==");
        for d in self.metrics.defs() {
            let exact = if d.exact { "  exact" } else { "" };
            println!(
                "  {:<30} {:>18} {}{exact}",
                d.name,
                number(self.metrics.get(d.name)),
                d.unit
            );
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "  {:<30} {:>18} ratio  ({} of {})",
            "failed_share",
            number(share),
            self.failed,
            self.attempted
        );
        for n in &self.notes {
            println!("  note: {n}");
        }
        for f in &self.failures {
            println!("  FAILED: {f}");
        }
    }
}

fn number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--all" => parsed.workloads = WORKLOADS.iter().map(|w| w.name).collect(),
            "--workload" => {
                let name = value("a workload name")?;
                let w = WORKLOADS
                    .iter()
                    .find(|w| w.name == name)
                    .ok_or_else(|| format!("unknown workload {name}"))?;
                parsed.workloads.push(w.name);
            }
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                parsed.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--out" => parsed.out = Some(PathBuf::from(value("a path")?)),
            "--quick" => parsed.quick = true,
            // `--trace` alone, or `--trace 0|1` as the driver passes it.
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(parsed.seconds > 0.0 && parsed.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(parsed)
}

/// Runs the named workloads one after the other; the work directory goes
/// away whether they succeed, fail or panic.
fn run_workloads(args: &Args) -> Result<bool, String> {
    if args.workloads.is_empty() {
        return Err("name a workload with --workload, or pass --all".into());
    }
    let scratch = Scratch::new()?;

    let mut all_correct = true;
    let mut results: BTreeMap<String, Value> = BTreeMap::new();
    let mut last = None;
    for &workload in &args.workloads {
        let ctx = scratch.ctx(args.seed, args.seconds, args.quick, workload);
        ctx.fresh_work()?;
        let outcome = if args.trace {
            traced::run(&ctx, workload)
        } else {
            run::run(&ctx, workload)
        }
        .map_err(|e| format!("{workload}: {e}"))?;
        let _ = std::fs::remove_dir_all(&ctx.work);
        outcome.print(workload, args.trace);
        all_correct &= outcome.correct();
        let json = outcome.to_json();
        last = Some(json.clone());
        results.insert(workload.to_string(), json);
    }
    if let Some(path) = &args.out {
        let doc = obj([
            ("seed", args.seed.into()),
            ("quick", args.quick.into()),
            ("trace", args.trace.into()),
            (
                "cores",
                std::thread::available_parallelism()
                    .map_or(1, usize::from)
                    .into(),
            ),
            ("workloads", Value::Obj(results)),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, doc.encode() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    // The last line of stdout is the result object of the (last) workload.
    println!("{}", last.expect("at least one workload ran").encode());
    Ok(all_correct)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some("run" | "check" | "compare" | "child") => (args[0].as_str(), &args[1..]),
        _ => ("run", &args[..]),
    };
    let result = match command {
        "child" => child::main(rest).map(|()| true),
        "compare" => check::compare(rest),
        "check" => parse_args(rest).and_then(|a| check::check(a.seed, a.quick)),
        _ => parse_args(rest).and_then(|a| run_workloads(&a)),
    };
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("clabench: {e}");
            std::process::exit(2);
        }
    }
}
