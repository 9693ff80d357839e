//! The program under test runs in child processes (the harness executing
//! itself as `clabench child ...`): a batch user pays allocator and
//! page-fault cost on every run, `VmHWM` cannot be reset in-process, and a
//! server's footprint should not include the oracle the harness builds next
//! to it. Children report one JSON object per line on stdout.

use crate::inputs::{self, read_manifest};
use cla::hub::{Hub, HubOptions, SessionSource, SessionSpec};
use cla::prelude::*;
use cla::serve::json::{obj, parse, Value};
use std::io::{BufRead, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

/// The one tenant `hub_queries` opens.
pub const TENANT: &str = "mid";

// ----- parent side ----------------------------------------------------------

/// A running child. Dropping it kills and reaps the process, so no exit
/// path of the harness leaves one behind.
pub struct Kid {
    child: Child,
    stdout: BufReader<ChildStdout>,
}

impl Kid {
    pub fn spawn(args: &[&str]) -> Result<Kid, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("child")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn child {args:?}: {e}"))?;
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(Kid { child, stdout })
    }

    /// The next report line of the child.
    pub fn report(&mut self) -> Result<Value, String> {
        let mut line = String::new();
        let n = self
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading child report: {e}"))?;
        if n == 0 {
            return Err("child exited without a report".into());
        }
        parse(line.trim()).map_err(|e| format!("child report {line:?}: {e}"))
    }

    pub fn tell(&mut self, line: &str) -> Result<(), String> {
        let stdin = self.child.stdin.as_mut().expect("piped stdin");
        writeln!(stdin, "{line}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("writing to child: {e}"))
    }

    /// Waits for the child to end on its own and checks how it ended.
    pub fn finish(mut self) -> Result<(), String> {
        drop(self.child.stdin.take());
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("child ended with {status}"))
        }
    }

    /// Runs a child that reports once and exits.
    pub fn run_once(args: &[&str]) -> Result<Value, String> {
        let mut kid = Kid::spawn(args)?;
        let report = kid.report()?;
        kid.finish()?;
        Ok(report)
    }
}

impl Drop for Kid {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

pub fn num(v: &Value, key: &str) -> Result<f64, String> {
    match v.get(key) {
        Some(Value::Num(n)) => Ok(*n),
        _ => Err(format!("report lacks number `{key}`: {}", v.encode())),
    }
}

// ----- child side -----------------------------------------------------------

/// FNV-1a over the relation, one word at a time: equal relations over equal
/// object numbering give equal fingerprints.
pub fn fingerprint(pts: &PointsTo) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u32| h = (h ^ u64::from(v)).wrapping_mul(0x0000_0100_0000_01b3);
    for (o, set) in pts.iter() {
        if !set.is_empty() {
            mix(o.0);
            mix(set.len() as u32);
            set.iter().for_each(|t| mix(t.0));
        }
    }
    h
}

/// A 64-bit value as a JSON string (a JSON number would round it).
fn hex(v: u64) -> Value {
    format!("{v:016x}").into()
}

fn rss_mb() -> Value {
    (cla::obs::peak_rss_bytes() as f64 / 1e6).into()
}

fn say(v: &Value) {
    println!("{}", v.encode());
}

/// Blocks until the parent writes a line; `None` when it closed the pipe.
fn hear() -> Option<String> {
    let mut line = String::new();
    match std::io::stdin().lock().read_line(&mut line) {
        Ok(n) if n > 0 => Some(line.trim().to_string()),
        _ => None,
    }
}

pub fn main(args: &[String]) -> Result<(), String> {
    let arg = |i: usize| -> Result<&str, String> {
        args.get(i)
            .map(String::as_str)
            .ok_or_else(|| format!("child: missing argument {i}"))
    };
    match arg(0)? {
        "analyze" => {
            let jobs: usize = arg(2)?.parse().map_err(|e| format!("jobs: {e}"))?;
            let hooks = match (args.get(3), args.get(4)) {
                (Some(cache), Some(snap)) => Some((PathBuf::from(cache), PathBuf::from(snap))),
                _ => None,
            };
            analyze_once(Path::new(arg(1)?), jobs, hooks)
        }
        "solve" => solve_once(Path::new(arg(1)?)),
        "edits" => {
            let seed: u64 = arg(3)?.parse().map_err(|e| format!("seed: {e}"))?;
            edits(Path::new(arg(1)?), Path::new(arg(2)?), seed)
        }
        "hub" => hub(Path::new(arg(1)?), Path::new(arg(2)?)),
        other => Err(format!("child: unknown kind {other}")),
    }
}

/// One whole-program batch analysis, cold or (with a compile cache and a
/// snapshot store) warm. The clock runs around the pipeline call alone.
fn analyze_once(
    manifest: &Path,
    jobs: usize,
    hooks: Option<(PathBuf, PathBuf)>,
) -> Result<(), String> {
    let files = read_manifest(manifest).map_err(|e| format!("{}: {e}", manifest.display()))?;
    let refs: Vec<&str> = files.iter().map(String::as_str).collect();
    let opts = PipelineOptions {
        parallel_compile: true,
        jobs,
        ..Default::default()
    };
    let stores = hooks
        .map(|(cache, snap)| -> std::io::Result<_> {
            Ok((DiskCache::open(&cache)?, SnapshotStore::open(&snap)?))
        })
        .transpose()
        .map_err(|e| format!("opening cache and snapshot store: {e}"))?;
    let hooks = match &stores {
        Some((cache, store)) => AnalyzeHooks {
            compile_cache: Some(cache),
            snapshots: Some(store),
        },
        None => AnalyzeHooks::default(),
    };
    let t = Instant::now();
    let analysis = analyze_with(&OsFs, &refs, &opts, &hooks).map_err(|e| e.to_string())?;
    let secs = t.elapsed().as_secs_f64();
    let r = &analysis.report;
    say(&obj([
        ("secs", secs.into()),
        ("rss_mb", rss_mb()),
        ("relations", r.relations.into()),
        ("pointer_variables", r.pointer_variables.into()),
        ("variables", r.program_variables.into()),
        ("assigns", r.assign_counts.total().into()),
        ("object_bytes", r.object_size.into()),
        ("fingerprint", hex(fingerprint(&analysis.points_to))),
        ("cache_hits", r.compile_cache_hits.into()),
        ("snapshot_loaded", r.snapshot_loaded.into()),
        ("quarantined", r.quarantined.len().into()),
    ]));
    // The report is out; skip tearing down a few hundred MB of sets.
    std::process::exit(0)
}

/// The paper's Table 3 "analysis time": open a linked object file and solve.
fn solve_once(object: &Path) -> Result<(), String> {
    let bytes = std::fs::read(object).map_err(|e| format!("{}: {e}", object.display()))?;
    let t = Instant::now();
    let db = Database::open(bytes).map_err(|e| e.to_string())?;
    let (pts, stats) = solve_database(&db, SolveOptions::default());
    let secs = t.elapsed().as_secs_f64();
    say(&obj([
        ("secs", secs.into()),
        ("rss_mb", rss_mb()),
        ("relations", pts.relations().into()),
        ("pointer_variables", pts.pointer_variables().into()),
        ("fingerprint", hex(fingerprint(&pts))),
        ("passes", stats.passes.into()),
    ]));
    std::process::exit(0)
}

pub fn open_session(files: &[String], snap: &Path, jobs: usize) -> Result<Session, String> {
    let refs: Vec<&str> = files.iter().map(String::as_str).collect();
    Session::from_files_jobs(
        &OsFs,
        &refs,
        &PpOptions::default(),
        &LowerOptions::default(),
        SolveOptions::default(),
        Some(snap),
        jobs,
    )
    .map_err(|e| format!("session open: {e}"))
}

/// A resident session that is told `go <seconds> <max edits>` and then
/// edits, reloads and asks, one edit after the other.
fn edits(manifest: &Path, snap: &Path, seed: u64) -> Result<(), String> {
    let files = read_manifest(manifest).map_err(|e| format!("{}: {e}", manifest.display()))?;
    let t = Instant::now();
    let session = open_session(&files, snap, crate::jobs())?;
    say(&obj([("open_s", t.elapsed().as_secs_f64().into())]));
    let Some(go) = hear() else { return Ok(()) };
    let mut words = go.split_whitespace().skip(1);
    let mut word = |what: &str| words.next().ok_or_else(|| format!("go: missing {what}"));
    let seconds: f64 = word("seconds")?.parse().map_err(|e| format!("go: {e}"))?;
    let max: usize = word("max")?.parse().map_err(|e| format!("go: {e}"))?;

    let mut stream = inputs::EditStream::new(seed, files.len());
    let mut latencies: Vec<Value> = Vec::new();
    let mut failures: Vec<Value> = Vec::new();
    let start = Instant::now();
    while latencies.len() < max && (latencies.is_empty() || start.elapsed().as_secs_f64() < seconds)
    {
        let edit = stream.next().expect("an endless stream");
        edit.save(&files)?;
        let t = Instant::now();
        let outcome = session
            .reload(Some(&OsFs), false)
            .map_err(|e| e.to_string())
            .and_then(|r| {
                Ok((
                    r,
                    session
                        .points_to(&edit.pointer)
                        .map_err(|e| e.to_string())?,
                ))
            });
        latencies.push((t.elapsed().as_secs_f64() * 1e3).into());
        let verdict = outcome.and_then(|(reload, answer)| edit.verdict(&files, &reload, &answer));
        if let Err(e) = verdict {
            failures.push(e.into());
        }
    }
    say(&obj([
        ("wall_s", start.elapsed().as_secs_f64().into()),
        ("latencies_ms", Value::Arr(latencies)),
        ("failures", Value::Arr(failures)),
        ("rss_mb", rss_mb()),
    ]));
    Ok(())
}

pub fn tenant_spec(files: &[String], snap: &Path, jobs: usize) -> SessionSpec {
    SessionSpec {
        source: SessionSource::Files {
            fs: Arc::new(OsFs),
            files: files.to_vec(),
            pp: PpOptions::default(),
            lower: LowerOptions::default(),
            lenient: false,
        },
        solve: SolveOptions::default(),
        snapshot_dir: Some(snap.to_path_buf()),
        jobs,
    }
}

/// One hub with one tenant on an ephemeral TCP port; serves until the
/// parent writes a line, then reports its counters.
fn hub(manifest: &Path, snap: &Path) -> Result<(), String> {
    let files = read_manifest(manifest).map_err(|e| format!("{}: {e}", manifest.display()))?;
    let t = Instant::now();
    let hub = Arc::new(Hub::new(HubOptions::default()));
    hub.open(TENANT, tenant_spec(&files, snap, crate::jobs()))
        .map_err(|e| format!("hub open: {e}"))?;
    let handle =
        cla::hub::hub_serve(Arc::clone(&hub), "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    say(&obj([
        ("addr", handle.addr().to_string().into()),
        ("open_s", t.elapsed().as_secs_f64().into()),
    ]));
    let _ = hear();
    let c = hub.tenant_counters(TENANT);
    say(&obj([
        ("requests", c.requests.into()),
        ("busy_refusals", c.busy_rejections.into()),
        ("evictions", c.evictions.into()),
        ("rehydrations", c.rehydrations.into()),
        ("rss_mb", rss_mb()),
    ]));
    handle.stop();
    Ok(())
}
