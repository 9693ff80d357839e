//! `cla-tool` — command-line driver for the CLA analysis system.
//!
//! ```text
//! cla-tool compile a.c b.c -o prog.clao      compile + link to a database
//! cla-tool analyze a.c b.c                   full compile-link-analyze run
//! cla-tool gen profiles/million.toml --out m generate a synthetic codebase
//! cla-tool dump prog.clao                    Figure 4-style object dump
//! cla-tool solve prog.clao [--print p q]     points-to analysis
//! cla-tool depend prog.clao --target x       forward dependence query
//! cla-tool ctx prog.clao -k 4 -o dup.clao    context-duplication transform
//! cla-tool serve prog.clao --socket S        long-running query server
//! cla-tool hub app=src lib=lib.clao          multi-tenant TCP hub
//! cla-tool query --socket S points-to p      one query against a server
//! cla-tool query --tcp H:P --session app ... one query against a hub session
//! cla-tool snapshot-save prog.clao -o s.clasnap  solve + persist the graph
//! cla-tool snapshot-info s.clasnap           header/provenance of a snapshot
//! cla-tool db-fuzz a.c b.c --iters 500       fault-inject the object format
//! cla-tool front-fuzz a.c b.c --iters 2000   hostile-input fuzz the frontend
//! cla-tool trace-validate trace.json         check a recorded trace
//! cla-tool bench-diff OLD.json NEW.json      gate on phase-time regressions
//! ```
//!
//! `analyze` and `serve` accept `--snapshot DIR`: analysis results persist
//! to `DIR/graph.clasnap` (plus a content-addressed compile cache under
//! `DIR/cache` for `analyze`), so an unchanged program skips the solver on
//! the next run and starts warm. `db-fuzz --snapshot` points the fault
//! harness at the snapshot format instead of the object format.
//!
//! Compile accepts `-I <dir>` include paths, `-D NAME[=VALUE]` defines,
//! `--field-independent`, and `--solver pretransitive|worklist|steensgaard`
//! on `solve`.
//!
//! Three observability flags work with every command: `--trace FILE`
//! records a Chrome `trace_event` JSONL trace (load it in `chrome://tracing`
//! or Perfetto), `--metrics` prints Prometheus text exposition to stdout
//! after the command finishes, and `--profile FILE` runs the in-process
//! sampling profiler for the whole command, writing a collapsed-stack
//! profile to FILE (feed it to `flamegraph.pl` or speedscope) and a
//! per-span self/total time table to stderr.

use cla::prelude::*;
use cla_cladb::transform;
use cla_depend::{DependOptions, DependenceAnalysis};
use std::process::ExitCode;
use std::str::FromStr;

fn main() -> ExitCode {
    cla::prof::init();
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let (trace_path, want_metrics, profile_path) = match take_obs_flags(&mut args) {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("cla-tool: {msg}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &trace_path {
        match cla::obs::ChromeTraceWriter::create(std::path::Path::new(path)) {
            Ok(w) => cla::obs::global().set_trace_sink(Some(std::sync::Arc::new(w))),
            Err(e) => {
                eprintln!("cla-tool: cannot open trace file `{path}`: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    // The profiler covers the whole command, so the collapsed profile and
    // the span table include compile, link, and solve in one recording.
    let profiler = profile_path
        .as_ref()
        .map(|_| cla::prof::Profiler::start_default());
    let result = match args.first().map(String::as_str) {
        Some("compile") => cmd_compile(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("gen") => cmd_gen(&args[1..]),
        Some("dump") => cmd_dump(&args[1..]),
        Some("solve") => cmd_solve(&args[1..]),
        Some("depend") => cmd_depend(&args[1..]),
        Some("ctx") => cmd_ctx(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("hub") => cmd_hub(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("snapshot-save") => cmd_snapshot_save(&args[1..]),
        Some("snapshot-info") => cmd_snapshot_info(&args[1..]),
        Some("db-fuzz") => cmd_db_fuzz(&args[1..]),
        Some("front-fuzz") => cmd_front_fuzz(&args[1..]),
        Some("trace-validate") => cmd_trace_validate(&args[1..]),
        Some("bench-diff") => cmd_bench_diff(&args[1..]),
        Some("help") | None => {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    if let (Some(profiler), Some(path)) = (profiler, &profile_path) {
        let profile = profiler.stop();
        if let Err(e) = std::fs::write(path, profile.collapsed()) {
            eprintln!("cla-tool: cannot write profile `{path}`: {e}");
        } else {
            eprintln!(
                "profile: {} samples over {:?} -> {path} (collapsed stacks)",
                profile.samples, profile.wall
            );
        }
        eprint!("{}", profile.render_table());
        let alloc = cla::prof::alloc_snapshot();
        if alloc.enabled {
            eprintln!(
                "alloc: {} bytes in {} allocations, peak live {} bytes",
                alloc.total_bytes, alloc.total_allocs, alloc.peak_live_bytes
            );
            for s in alloc.by_span.iter().take(10) {
                eprintln!(
                    "  {:>14} bytes  {:>10} allocs  peak {:>12}  {}",
                    s.bytes, s.allocs, s.peak_live_bytes, s.span
                );
            }
        }
    }
    cla::obs::global().flush_trace();
    if want_metrics {
        print!("{}", cla::obs::global().prometheus_text());
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("cla-tool: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  cla-tool compile <src.c>... [-o out.clao] [-I dir] [-D NAME[=V]] [--field-independent]
  cla-tool analyze <src.c>... [-I dir] [-D NAME[=V]] [--field-independent] [--jobs N] [--snapshot DIR] [--print var...]
  cla-tool gen <profile.toml> --out DIR [--seed N]
  cla-tool dump <prog.clao>
  cla-tool solve <prog.clao> [--solver pretransitive|worklist|steensgaard] [--print var...]
  cla-tool depend <prog.clao> --target NAME [--tree] [--non-target NAME]...
  cla-tool ctx <prog.clao> -k N -o out.clao
  cla-tool serve <prog.clao> --socket PATH [--snapshot DIR]
  cla-tool serve <src.c>... --socket PATH [-I dir] [-D NAME[=V]] [--field-independent] [--jobs N] [--snapshot DIR] [--lenient]
  cla-tool hub NAME=PATH... [--listen HOST:PORT] [--capacity N] [--max-inflight N] [--rebuild-slots N] [--jobs N] [--lenient] [--snapshot-root DIR] [-I dir] [-D NAME[=V]]
  cla-tool snapshot-save <prog.clao> [-o out.clasnap]
  cla-tool snapshot-info <file.clasnap>
  cla-tool query (--socket PATH | --tcp HOST:PORT [--session NAME]) points-to <var>
  cla-tool query (--socket PATH | --tcp HOST:PORT [--session NAME]) alias <a> <b>
  cla-tool query (--socket PATH | --tcp HOST:PORT [--session NAME]) depend <target> [--non-target NAME]...
  cla-tool query (--socket PATH | --tcp HOST:PORT [--session NAME]) stats|metrics|reload|health|sessions|shutdown [--force]
  cla-tool query (--socket PATH | --tcp HOST:PORT [--session NAME]) profile start|stop|dump [--interval-us N]
  cla-tool db-fuzz <src.c>...|<prog.clao> [--snapshot] [--iters N] [--seed N] [-I dir] [-D NAME[=V]]
  cla-tool front-fuzz <src.c>... [--gen profile.toml] [--iters N] [--seed N] [--deadline-ms N]
  cla-tool trace-validate <trace.json>
  cla-tool bench-diff <OLD.json> <NEW.json> [--ceiling PCT] [--history FILE]
global flags (any command):
  --trace FILE    record a Chrome trace_event JSONL trace to FILE
  --metrics       print Prometheus metrics text to stdout on exit
  --profile FILE  sample the span stack; write a collapsed-stack profile to FILE";

/// Pulls the global observability flags out of the argument list so every
/// subcommand parser sees only its own arguments.
fn take_obs_flags(
    args: &mut Vec<String>,
) -> Result<(Option<String>, bool, Option<String>), String> {
    let mut trace = None;
    while let Some(pos) = args.iter().position(|a| a == "--trace") {
        if pos + 1 >= args.len() {
            return Err("`--trace` needs a file path".to_string());
        }
        trace = Some(args.remove(pos + 1));
        args.remove(pos);
    }
    let mut profile = None;
    while let Some(pos) = args.iter().position(|a| a == "--profile") {
        if pos + 1 >= args.len() {
            return Err("`--profile` needs a file path".to_string());
        }
        profile = Some(args.remove(pos + 1));
        args.remove(pos);
    }
    let before = args.len();
    args.retain(|a| a != "--metrics");
    Ok((trace, args.len() != before, profile))
}

/// Splits out flag values of the form `--flag value` / `-f value`.
struct Args<'a> {
    rest: Vec<&'a str>,
}

impl<'a> Args<'a> {
    fn new(args: &'a [String]) -> Self {
        Args {
            rest: args.iter().map(String::as_str).collect(),
        }
    }

    /// Removes every `flag value` pair, returning the values.
    fn take_values(&mut self, flag: &str) -> Result<Vec<String>, String> {
        let mut out = Vec::new();
        while let Some(pos) = self.rest.iter().position(|a| *a == flag) {
            if pos + 1 >= self.rest.len() {
                return Err(format!("`{flag}` needs a value"));
            }
            out.push(self.rest[pos + 1].to_string());
            self.rest.drain(pos..=pos + 1);
        }
        Ok(out)
    }

    /// The value of the last `flag V` (all are removed); `None` without the
    /// flag.
    fn take_value(&mut self, flag: &str) -> Result<Option<String>, String> {
        Ok(self.take_values(flag)?.pop())
    }

    /// [`Args::take_value`], parsed. `bad(V)` is the error for a value that
    /// does not parse.
    fn take_parsed<T: FromStr>(
        &mut self,
        flag: &str,
        bad: impl FnOnce(&str) -> String,
    ) -> Result<Option<T>, String> {
        let Some(v) = self.take_value(flag)? else {
            return Ok(None);
        };
        v.parse().map(Some).map_err(|_| bad(&v))
    }

    /// [`Args::take_parsed`] for a number: the error is `{flag} needs a
    /// number`.
    fn take_number<T: FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        self.take_parsed(flag, |_| format!("{flag} needs a number"))
    }

    /// Removes a boolean flag; true when present.
    fn take_flag(&mut self, flag: &str) -> bool {
        let before = self.rest.len();
        self.rest.retain(|a| *a != flag);
        self.rest.len() != before
    }

    /// Everything after `marker` (inclusive removal), e.g. `--print a b c`.
    fn take_tail(&mut self, marker: &str) -> Vec<String> {
        if let Some(pos) = self.rest.iter().position(|a| *a == marker) {
            let tail: Vec<String> = self.rest.drain(pos..).skip(1).map(str::to_string).collect();
            tail
        } else {
            Vec::new()
        }
    }

    fn positional(self) -> Vec<String> {
        self.rest.into_iter().map(str::to_string).collect()
    }

    /// The preprocessor flags: `-I dir` and `-D NAME[=V]` (V defaults to 1).
    fn pp_options(&mut self) -> Result<PpOptions, String> {
        let include_dirs = self.take_values("-I")?;
        let defines = (self.take_values("-D")?.into_iter())
            .map(|d| match d.split_once('=') {
                Some((n, v)) => (n.to_string(), v.to_string()),
                None => (d, "1".to_string()),
            })
            .collect();
        Ok(PpOptions {
            include_dirs,
            defines,
            ..PpOptions::default()
        })
    }

    /// The lowering flag: `--field-independent`.
    fn lower_options(&mut self) -> LowerOptions {
        if self.take_flag("--field-independent") {
            LowerOptions::default().field_independent()
        } else {
            LowerOptions::default()
        }
    }
}

/// Admits a `.clao` with `Database::admit`: every block is checked before a
/// solver, which indexes by the ids it reads, may touch it, so a damaged
/// file is an error here, never a panic later.
fn load_database(path: &str) -> Result<Database, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    Database::admit(bytes).map_err(|e| format!("`{path}`: {e}"))
}

/// Links compiled units the way every build does: each encoded to its
/// object, the objects folded by the block linker.
fn link_objects(program: &str, units: &[CompiledUnit]) -> cla_cladb::LinkedObject {
    let mut linker = cla_cladb::ObjectLinker::new(program);
    for unit in units {
        linker.add(&cla_cladb::UnitObject::encode(unit));
    }
    linker.finish(false)
}

fn cmd_compile(args: &[String]) -> Result<(), String> {
    let mut a = Args::new(args);
    let out = a.take_value("-o")?.unwrap_or_else(|| "a.clao".to_string());
    let pp = a.pp_options()?;
    let lower = a.lower_options();
    let sources = a.positional();
    if sources.is_empty() {
        return Err("no source files".to_string());
    }

    let fs = OsFs;
    let mut units = Vec::new();
    for src in &sources {
        let (unit, _) = compile_file(&fs, src, &pp, &lower).map_err(|e| e.to_string())?;
        let c = unit.assign_counts();
        eprintln!(
            "compiled {src}: {} objects, {} assignments",
            unit.objects.len(),
            c.total()
        );
        units.push(unit);
    }
    let cla_cladb::LinkedObject { object, stats, .. } = link_objects(&out, &units);
    let bytes = object.bytes();
    // Temp + fsync + rename: an interrupted compile never leaves a
    // half-written .clao for a later phase to load.
    cla_cladb::atomic_write_bytes(std::path::Path::new(&out), bytes)
        .map_err(|e| format!("cannot write `{out}`: {e}"))?;
    eprintln!(
        "linked {} units -> {out}: {} objects ({} symbols merged), {} assignments, {} bytes",
        stats.units,
        stats.objects_out,
        stats.symbols_merged,
        stats.assigns,
        bytes.len()
    );
    Ok(())
}

/// Runs the full compile-link-analyze pipeline over OS files and prints a
/// Table 2/3-style report. With `--trace`/`--metrics` this is the
/// one-command way to record spans from every layer.
fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let mut a = Args::new(args);
    let pp = a.pp_options()?;
    let lower = a.lower_options();
    // Asking for a pool size (0 = one per core) asks for a pool.
    let jobs: Option<usize> = a.take_number("--jobs")?;
    let snapshot_dir = a.take_value("--snapshot")?;
    // The CLI default is quarantine-and-continue: a hostile or broken file
    // lands in the quarantine ledger and the analysis covers the rest.
    // `--strict` restores fail-fast (the library default).
    let strict = a.take_flag("--strict");
    let unknown_summaries = a.take_flag("--unknown-summaries");
    let deadline_ms: u64 = a.take_number("--deadline-ms")?.unwrap_or(0);
    let print = a.take_tail("--print");
    let sources = a.positional();
    if sources.is_empty() {
        return Err("no source files".to_string());
    }

    let opts = PipelineOptions {
        pp: PpOptions {
            limits: FrontendLimits {
                deadline_ms,
                ..FrontendLimits::default()
            },
            ..pp
        },
        lower,
        solver: SolveOptions::default(),
        parallel_compile: jobs.is_some(),
        jobs: jobs.unwrap_or(0),
        strict,
        unknown_summaries,
    };
    let files: Vec<&str> = sources.iter().map(String::as_str).collect();
    // With `--snapshot DIR` the run persists its results: compiled objects
    // land in a content-addressed cache under DIR/cache, the linked program
    // in DIR/program-<key>.clao and the sealed graph in DIR/graph.clasnap.
    // An unchanged rerun then skips the compiler (per unchanged file), the
    // link and the solver entirely.
    let analysis = match &snapshot_dir {
        None => analyze(&OsFs, &files, &opts).map_err(|e| e.to_string())?,
        Some(dir) => {
            let dir = std::path::Path::new(dir);
            let cache = DiskCache::open(&dir.join("cache"))
                .map_err(|e| format!("cannot open compile cache in `{}`: {e}", dir.display()))?;
            let store = SnapshotStore::open(dir)
                .map_err(|e| format!("cannot open snapshot store `{}`: {e}", dir.display()))?;
            let hooks = AnalyzeHooks {
                compile_cache: Some(&cache),
                snapshots: Some(&store),
            };
            analyze_with(&OsFs, &files, &opts, &hooks).map_err(|e| e.to_string())?
        }
    };
    let r = &analysis.report;
    println!(
        "files={} source-bytes={} variables={} assignments={} object-bytes={}",
        r.files,
        r.source_bytes,
        r.program_variables,
        r.assign_counts.total(),
        r.object_size
    );
    println!(
        "compile={:?} link={:?} solve={:?} jobs={} peak-buffered-units={} peak-rss-bytes={}",
        r.compile_time, r.link_time, r.solve_time, r.jobs, r.peak_buffered_units, r.peak_rss_bytes
    );
    // The link's own split: folding runs while files still compile (inside
    // `compile=`), assembling and opening the program object are `link=`.
    println!(
        "link-phases: symbols={:?} merge={:?} assemble={:?} open={:?}",
        r.link_times.symbols, r.link_times.merge, r.link_times.assemble, r.open_time
    );
    println!(
        "passes={} pointer-variables={} relations={} assigns-loaded={}/{}",
        r.solve_stats.passes,
        r.pointer_variables,
        r.relations,
        r.load_stats.assigns_loaded,
        r.load_stats.assigns_in_file
    );
    if !r.slowest_files.is_empty() {
        let shown: Vec<String> = r
            .slowest_files
            .iter()
            .map(|(f, d)| format!("{f}={:.3}s", d.as_secs_f64()))
            .collect();
        println!("slowest-files: {}", shown.join(" "));
    }
    // The quarantine ledger: one line per failed unit with its typed
    // reason, plus a partial marker so scripts can tell answers below
    // cover only the surviving units.
    if r.is_partial() {
        println!(
            "partial=true quarantined={} unknown-summaries={}",
            r.quarantined.len(),
            r.unknown_summaries
        );
        for q in &r.quarantined {
            println!("quarantined {}: {}", q.file, q.reason);
        }
    }
    if snapshot_dir.is_some() {
        // A partial run bypasses the store: nothing was loaded or written.
        println!(
            "cache-hits={} direct={} cache-misses={} program={} snapshot={}",
            r.compile_cache_hits,
            r.compile_cache_direct_hits,
            r.compile_cache_misses,
            if r.program_loaded { "loaded" } else { "linked" },
            if r.snapshot_loaded {
                "loaded (solve skipped)"
            } else if r.is_partial() {
                "skipped (partial)"
            } else {
                "written"
            }
        );
    }
    print_points_to(&analysis.database, &analysis.points_to, &print);
    Ok(())
}

/// Generates a synthetic C codebase from a declarative profile
/// (`profiles/*.toml`), streaming one file at a time to the output
/// directory. The tree is a pure function of `(profile, seed)`.
fn cmd_gen(args: &[String]) -> Result<(), String> {
    let mut a = Args::new(args);
    let out = a.take_value("--out")?.ok_or("`gen` needs `--out DIR`")?;
    let seed: Option<u64> = a.take_parsed("--seed", |v| format!("bad --seed `{v}`"))?;
    let positional = a.positional();
    let [profile_path] = positional.as_slice() else {
        return Err("usage: cla-tool gen <profile.toml> --out DIR [--seed N]".to_string());
    };
    let profile =
        cla::genc::Profile::load(std::path::Path::new(profile_path)).map_err(|e| e.to_string())?;
    let seed = seed.unwrap_or(profile.seed);
    let started = std::time::Instant::now();
    let report = cla::genc::generate_to_dir(&profile, seed, std::path::Path::new(&out))
        .map_err(|e| format!("cannot write `{out}`: {e}"))?;
    println!(
        "generated {} ({} files + {}) in {:?}",
        report.name,
        report.files,
        cla::genc::HEADER_NAME,
        started.elapsed()
    );
    println!(
        "loc={} bytes={} functions={} statements={} seed={} tree-hash={:016x}",
        report.loc,
        report.bytes,
        report.functions,
        report.statements,
        report.seed,
        report.tree_hash
    );
    Ok(())
}

/// Validates a `--trace` output file: the streaming `trace_event` array
/// must hold one JSON object per line, every event needs `ph`/`name`/`ts`,
/// `B`/`E` pairs must nest properly per thread, and profiler sample events
/// (`ph:"P"`, emitted when `--trace` and `--profile` run together) must
/// carry their collapsed stack in `args.stack`.
fn cmd_trace_validate(args: &[String]) -> Result<(), String> {
    use cla::serve::json::{parse, Value};
    use std::collections::HashMap;

    let path = args.first().ok_or("trace-validate needs a trace file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let mut events = 0usize;
    let mut spans = 0usize;
    let mut samples = 0usize;
    let mut open: HashMap<u64, Vec<String>> = HashMap::new();
    for (idx, raw) in text.lines().enumerate() {
        // The streaming format is `[` then one event per line with a
        // trailing comma and no closing bracket (so a truncated trace
        // still loads). Strip that framing to get plain JSON objects.
        let line = raw.trim().trim_end_matches(',');
        if line.is_empty() || line == "[" || line == "]" {
            continue;
        }
        let lineno = idx + 1;
        let v = parse(line).map_err(|e| format!("{path}:{lineno}: bad JSON: {e}"))?;
        let ph = v
            .get("ph")
            .and_then(Value::as_str)
            .ok_or(format!("{path}:{lineno}: event missing `ph`"))?;
        let name = v
            .get("name")
            .and_then(Value::as_str)
            .ok_or(format!("{path}:{lineno}: event missing `name`"))?;
        if v.get("ts").and_then(Value::as_u64).is_none() {
            return Err(format!("{path}:{lineno}: event missing numeric `ts`"));
        }
        let tid = v.get("tid").and_then(Value::as_u64).unwrap_or(0);
        match ph {
            "B" => open.entry(tid).or_default().push(name.to_string()),
            "E" => match open.entry(tid).or_default().pop() {
                Some(b) if b == name => spans += 1,
                Some(b) => {
                    return Err(format!(
                        "{path}:{lineno}: `E` for `{name}` but innermost open span is `{b}`"
                    ))
                }
                None => {
                    return Err(format!(
                        "{path}:{lineno}: `E` for `{name}` with no open span on tid {tid}"
                    ))
                }
            },
            // Profiler samples: one per sampler tick per live stack. The
            // stack travels in args so flamegraph tooling can rebuild it.
            "P" => {
                if v.get("args")
                    .and_then(|a| a.get("stack"))
                    .and_then(Value::as_str)
                    .is_none()
                {
                    return Err(format!(
                        "{path}:{lineno}: sample event missing `args.stack`"
                    ));
                }
                samples += 1;
            }
            // Instants, counters, and metadata are self-contained.
            "i" | "C" | "M" => {}
            _ => {}
        }
        events += 1;
    }
    if let Some((tid, stack)) = open.iter().find(|(_, s)| !s.is_empty()) {
        return Err(format!("unclosed spans on tid {tid}: {stack:?}"));
    }
    if events == 0 {
        return Err(format!("`{path}` contains no trace events"));
    }
    println!("trace OK: {events} events, {spans} balanced spans, {samples} profiler samples");
    Ok(())
}

/// Diffs two bench JSON reports (the `BENCH_*.json` files written by the
/// benchmark examples) phase by phase. Every numeric key ending in `_secs`
/// is a phase; a phase that slowed down past `--ceiling` percent (and past
/// a small absolute floor, so micro-runs aren't noise-gated) is a
/// regression and the command exits nonzero naming it. `--history FILE`
/// appends the new report to an append-only `BENCH_history.jsonl`.
fn cmd_bench_diff(args: &[String]) -> Result<(), String> {
    use cla::serve::json::{parse, Value};
    use std::collections::BTreeMap;

    let mut a = Args::new(args);
    let bad = |_: &str| "--ceiling needs a percentage".to_string();
    let ceiling: f64 = a.take_parsed("--ceiling", bad)?.unwrap_or(15.0);
    let history = a.take_value("--history")?;
    let pos = a.positional();
    let [old_path, new_path] = pos.as_slice() else {
        return Err(
            "usage: cla-tool bench-diff <OLD.json> <NEW.json> [--ceiling PCT] [--history FILE]"
                .to_string(),
        );
    };

    let load = |path: &str| -> Result<Value, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        parse(text.trim()).map_err(|e| format!("`{path}`: bad JSON: {e}"))
    };
    let old_v = load(old_path)?;
    let new_v = load(new_path)?;
    let old = old_v
        .as_obj()
        .ok_or(format!("`{old_path}`: not a JSON object"))?;
    let new = new_v
        .as_obj()
        .ok_or(format!("`{new_path}`: not a JSON object"))?;
    let num = |m: &BTreeMap<String, Value>, k: &str| -> Option<f64> {
        match m.get(k) {
            Some(Value::Num(n)) => Some(*n),
            _ => None,
        }
    };

    let mut phases: Vec<String> = old
        .keys()
        .chain(new.keys())
        .filter(|k| k.ends_with("_secs"))
        .cloned()
        .collect();
    phases.sort();
    phases.dedup();
    if phases.is_empty() {
        return Err("no `*_secs` phase keys found in either report".to_string());
    }

    // Sub-10ms phases jitter by whole multiples of themselves on shared CI
    // runners; the absolute floor keeps them from tripping the gate.
    const ABS_FLOOR_SECS: f64 = 0.01;
    let mut regressions = Vec::new();
    let mut compared = 0usize;
    println!("{:<18} {:>10} {:>10} {:>8}", "phase", "old", "new", "delta");
    for ph in &phases {
        match (num(old, ph), num(new, ph)) {
            (Some(o), Some(n)) => {
                compared += 1;
                let pct = if o > 0.0 { (n - o) / o * 100.0 } else { 0.0 };
                let regressed = n > o * (1.0 + ceiling / 100.0) && n - o > ABS_FLOOR_SECS;
                println!(
                    "{ph:<18} {o:>9.3}s {n:>9.3}s {pct:>+7.1}%{}",
                    if regressed { "  REGRESSION" } else { "" }
                );
                if regressed {
                    regressions.push(format!("{ph} {o:.3}s -> {n:.3}s (+{pct:.1}%)"));
                }
            }
            (None, Some(n)) => println!("{ph:<18} {:>10} {n:>9.3}s    (new)", "-"),
            (Some(o), None) => println!("{ph:<18} {o:>9.3}s {:>10}  (gone)", "-"),
            (None, None) => {}
        }
    }
    if let (Some(o), Some(n)) = (num(old, "peak_rss_bytes"), num(new, "peak_rss_bytes")) {
        let pct = if o > 0.0 { (n - o) / o * 100.0 } else { 0.0 };
        println!(
            "{:<18} {:>9.1}M {:>9.1}M {pct:>+7.1}%  (informational)",
            "peak_rss",
            o / 1e6,
            n / 1e6
        );
    }

    if let Some(hist) = &history {
        let entry = cla::prof::history::HistoryEntry {
            timestamp_secs: cla::prof::history::unix_now(),
            git_rev: cla::prof::history::git_rev(),
            label: new
                .get("profile")
                .and_then(Value::as_str)
                .unwrap_or("bench")
                .to_string(),
            phases: phases
                .iter()
                .filter_map(|p| num(new, p).map(|v| (p.clone(), v)))
                .collect(),
            peak_rss_bytes: num(new, "peak_rss_bytes").unwrap_or(0.0) as u64,
        };
        cla::prof::history::append(std::path::Path::new(hist), &entry)
            .map_err(|e| format!("cannot append history `{hist}`: {e}"))?;
        eprintln!("history: appended `{}` entry to {hist}", entry.label);
    }

    if regressions.is_empty() {
        println!("bench-diff OK: {compared} phases within the {ceiling}% ceiling");
        Ok(())
    } else {
        Err(format!(
            "{} phase regression(s) past the {ceiling}% ceiling:\n  {}",
            regressions.len(),
            regressions.join("\n  ")
        ))
    }
}

fn cmd_dump(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("dump needs a .clao file")?;
    let db = load_database(path)?;
    print!("{}", dump(&db));
    Ok(())
}

fn cmd_solve(args: &[String]) -> Result<(), String> {
    let mut a = Args::new(args);
    let solver = a
        .take_value("--solver")?
        .unwrap_or_else(|| "pretransitive".to_string());
    let print = a.take_tail("--print");
    let pos = a.positional();
    let path = pos.first().ok_or("solve needs a .clao file")?;
    let db = load_database(path)?;

    let t = std::time::Instant::now();
    let pts = match solver.as_str() {
        "pretransitive" => solve_database(&db, SolveOptions::default()).0,
        "worklist" => cla::core::worklist::solve(&db.to_unit().map_err(|e| e.to_string())?),
        "steensgaard" => cla::core::steensgaard::solve(&db.to_unit().map_err(|e| e.to_string())?),
        other => {
            return Err(format!(
                "unknown solver `{other}` (pretransitive, worklist, steensgaard)"
            ))
        }
    };
    let dt = t.elapsed();
    let ls = db.load_stats();
    println!(
        "solver={solver} time={dt:?} pointer-variables={} relations={}",
        pts.pointer_variables(),
        pts.relations()
    );
    println!(
        "assignments: loaded {} of {} in file",
        ls.assigns_loaded, ls.assigns_in_file
    );
    print_points_to(&db, &pts, &print);
    Ok(())
}

/// The `--print` lines: `pts(name) = {…}` for every object of each name,
/// or `<no such object>`.
fn print_points_to(db: &Database, pts: &PointsTo, names: &[String]) {
    for name in names {
        let targets = db.targets(name);
        if targets.is_empty() {
            println!("pts({name}) = <no such object>");
        }
        for &o in targets {
            let set: Vec<&str> = pts.points_to(o).iter().map(|&t| db.name(t)).collect();
            println!("pts({name}) = {{{}}}", set.join(", "));
        }
    }
}

fn cmd_depend(args: &[String]) -> Result<(), String> {
    let mut a = Args::new(args);
    let target = a
        .take_value("--target")?
        .ok_or("depend needs --target NAME")?;
    let tree = a.take_flag("--tree");
    let non_targets = a.take_values("--non-target")?;
    let pos = a.positional();
    let path = pos.first().ok_or("depend needs a .clao file")?;
    let db = load_database(path)?;
    let (pts, _) = solve_database(&db, SolveOptions::default());
    let dep = DependenceAnalysis::new(&db, &pts);
    let report = dep
        .try_analyze(&target, &DependOptions { non_targets })
        .map_err(|e| e.to_string())?
        .ok_or_else(|| format!("no object named `{target}`"))?;
    println!("{} dependents of `{target}`:", report.dependents().len());
    if tree {
        print!("{}", dep.render_tree(&report));
    } else {
        print!("{}", dep.render_report(&report));
    }
    Ok(())
}

/// The one recipe `serve` and `hub` turn their inputs into: a lone `.clao`
/// is a linked program; anything else is C sources, where a directory
/// stands for the `.c` files in it and goes first on the include path.
fn session_source(
    paths: &[String],
    mut pp: PpOptions,
    lower: LowerOptions,
    lenient: bool,
) -> Result<SessionSource, String> {
    if let [path] = paths {
        if path.ends_with(".clao") {
            return Ok(SessionSource::Object { path: path.into() });
        }
    }
    let (mut files, mut dirs) = (Vec::new(), Vec::new());
    for path in paths {
        if !std::path::Path::new(path).is_dir() {
            files.push(path.clone());
            continue;
        }
        let mut found: Vec<String> = std::fs::read_dir(path)
            .map_err(|e| format!("{path}: {e}"))?
            .filter_map(|e| e.ok())
            .map(|e| e.path().to_string_lossy().into_owned())
            .filter(|p| p.ends_with(".c"))
            .collect();
        if found.is_empty() {
            return Err(format!("no .c files in {path}"));
        }
        found.sort();
        files.extend(found);
        dirs.push(path.clone());
    }
    dirs.append(&mut pp.include_dirs);
    pp.include_dirs = dirs;
    Ok(SessionSource::Files {
        fs: std::sync::Arc::new(OsFs),
        files,
        pp,
        lower,
        lenient,
    })
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut a = Args::new(args);
    let socket = a
        .take_value("--socket")?
        .ok_or("serve needs --socket PATH")?;
    let pp = a.pp_options()?;
    let lower = a.lower_options();
    let lenient = a.take_flag("--lenient");
    let jobs: usize = a.take_number("--jobs")?.unwrap_or(1);
    let snapshot_dir = a.take_value("--snapshot")?;
    let pos = a.positional();
    if pos.is_empty() {
        return Err("serve needs a .clao file or C sources".to_string());
    }

    // `reload` recompiles changed sources, or re-reads a served `.clao`: a
    // corrupt rewrite degrades (last-good answers) instead of wedging the
    // server.
    let spec = SessionSpec {
        source: session_source(&pos, pp, lower, lenient)?,
        solve: SolveOptions::default(),
        snapshot_dir: snapshot_dir.map(std::path::PathBuf::from),
        jobs,
    };
    let session = Session::open(&spec).map_err(|e| e.to_string())?;
    for q in session.quarantined() {
        eprintln!("cla-tool: quarantined {}: {}", q.file, q.reason);
    }
    if spec.snapshot_dir.is_some() {
        eprintln!(
            "cla-tool: snapshot {}",
            if session.snapshot_loaded() {
                "loaded (warm start, solve skipped)"
            } else {
                "solved (cold start; saved once sealed)"
            }
        );
    }
    let handle = cla::serve::serve(
        std::sync::Arc::new(session),
        spec.fs().cloned(),
        std::path::Path::new(&socket),
    )
    .map_err(|e| format!("cannot bind `{socket}`: {e}"))?;
    eprintln!("cla-tool: serving on {socket} (send {{\"cmd\":\"shutdown\"}} to stop)");
    let stats = handle.join();
    println!("{}", stats.to_json().encode());
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    use cla::serve::json::{obj, Value};
    use cla::serve::{Client, Endpoint};

    let mut a = Args::new(args);
    let socket = a.take_value("--socket")?;
    let tcp = a.take_value("--tcp")?;
    let session = a.take_value("--session")?;
    let endpoint = match (socket, tcp) {
        (Some(_), Some(_)) => return Err("--socket and --tcp are mutually exclusive".to_string()),
        (Some(path), None) => Endpoint::Unix(std::path::PathBuf::from(path)),
        (None, Some(addr)) => Endpoint::Tcp(addr),
        (None, None) => return Err("query needs --socket PATH or --tcp HOST:PORT".to_string()),
    };
    let non_targets = a.take_values("--non-target")?;
    let force = a.take_flag("--force");
    let interval_us: Option<u64> = a.take_parsed("--interval-us", |us| {
        format!("--interval-us: not a number: `{us}`")
    })?;
    let pos = a.positional();

    let request = match pos.first().map(String::as_str) {
        Some("points-to") => {
            let var = pos.get(1).ok_or("points-to needs a variable name")?;
            obj([("cmd", "points-to".into()), ("var", var.as_str().into())])
        }
        Some("alias") => {
            let (x, y) = match (pos.get(1), pos.get(2)) {
                (Some(x), Some(y)) => (x, y),
                _ => return Err("alias needs two variable names".to_string()),
            };
            obj([
                ("cmd", "alias".into()),
                ("a", x.as_str().into()),
                ("b", y.as_str().into()),
            ])
        }
        Some("depend") => {
            let target = pos.get(1).ok_or("depend needs a target name")?;
            obj([
                ("cmd", "depend".into()),
                ("target", target.as_str().into()),
                (
                    "non-targets",
                    Value::Arr(non_targets.iter().map(|n| n.as_str().into()).collect()),
                ),
            ])
        }
        Some("stats") => obj([("cmd", "stats".into())]),
        Some("metrics") => obj([("cmd", "metrics".into())]),
        Some("reload") => obj([("cmd", "reload".into()), ("force", force.into())]),
        Some("health") => obj([("cmd", "health".into())]),
        Some("profile") => {
            let action = match pos.get(1).map(String::as_str) {
                Some(a @ ("start" | "stop" | "dump")) => a,
                _ => return Err("profile needs an action (start, stop, dump)".to_string()),
            };
            let mut pairs = vec![
                ("cmd", Value::from("profile")),
                ("action", action.into()),
            ];
            if let Some(us) = interval_us {
                pairs.push(("interval_us", us.into()));
            }
            obj(pairs)
        }
        Some("shutdown") => obj([("cmd", "shutdown".into())]),
        Some("sessions") => obj([("cmd", "sessions".into())]),
        Some(other) => return Err(format!("unknown query `{other}`")),
        None => return Err(
            "query needs a command (points-to, alias, depend, stats, metrics, reload, health, profile, sessions, shutdown)"
                .to_string(),
        ),
    };
    // A hub routes by the `session` field; the Unix-socket server ignores
    // unknown fields, so attaching it is harmless there.
    let request = match (request, &session) {
        (Value::Obj(mut map), Some(name)) => {
            map.insert("session".to_string(), name.as_str().into());
            Value::Obj(map)
        }
        (request, _) => request,
    };

    // The typed client turns a refusal into a hint, not a backtrace.
    let mut client = Client::connect(&endpoint).map_err(|e| e.to_string())?;
    let v = client.request(&request).map_err(|e| e.to_string())?;
    // Non-zero exit when the server reports an error. A `metrics` reply
    // carries multi-line Prometheus text; print it unescaped.
    if v.get("ok").and_then(Value::as_bool) == Some(false) {
        println!("{}", v.encode());
        return Err(v
            .get("error")
            .and_then(Value::as_str)
            .unwrap_or("server error")
            .to_string());
    }
    match v.get("metrics").and_then(Value::as_str) {
        Some(text) => print!("{text}"),
        None => println!("{}", v.encode()),
    }
    Ok(())
}

/// Starts the multi-tenant TCP hub: each `NAME=PATH` positional opens one
/// named session over a `.clao` object, a C source file, or a directory
/// of C sources. With `--snapshot-root DIR` every session evicts to (and
/// warm-starts from) `DIR/NAME/graph.clasnap`.
fn cmd_hub(args: &[String]) -> Result<(), String> {
    use cla::hub::hub_serve;
    use std::sync::Arc;

    let mut a = Args::new(args);
    let listen = a
        .take_value("--listen")?
        .unwrap_or_else(|| "127.0.0.1:4577".to_string());
    let capacity: usize = a.take_number("--capacity")?.unwrap_or(8);
    let max_inflight: u64 = a.take_number("--max-inflight")?.unwrap_or(64);
    let rebuild_slots: usize = a.take_number("--rebuild-slots")?.unwrap_or(2);
    let jobs: usize = a.take_number("--jobs")?.unwrap_or(1);
    let lenient = a.take_flag("--lenient");
    let pp = a.pp_options()?;
    let snapshot_root = a.take_value("--snapshot-root")?;
    let pos = a.positional();
    if pos.is_empty() {
        return Err("hub needs at least one NAME=PATH session".to_string());
    }

    let hub = Arc::new(Hub::new(HubOptions {
        capacity,
        max_inflight,
        rebuild_slots,
        ..HubOptions::default()
    }));
    for entry in &pos {
        let (name, path) = entry
            .split_once('=')
            .ok_or_else(|| format!("session `{entry}` is not NAME=PATH"))?;
        let spec = SessionSpec {
            source: session_source(
                &[path.to_string()],
                pp.clone(),
                LowerOptions::default(),
                lenient,
            )
            .map_err(|e| format!("session `{name}`: {e}"))?,
            solve: SolveOptions::default(),
            snapshot_dir: (snapshot_root.as_ref())
                .map(|root| std::path::Path::new(root).join(name)),
            jobs,
        };
        let (epoch, warm) = hub
            .open(name, spec)
            .map_err(|e| format!("session `{name}`: {e}"))?;
        eprintln!(
            "cla-tool: opened session {name} (epoch {epoch}{})",
            if warm { ", warm from snapshot" } else { "" }
        );
    }

    let handle = hub_serve(hub, &listen).map_err(|e| format!("cannot bind `{listen}`: {e}"))?;
    eprintln!(
        "cla-tool: hub serving {} sessions on {} (capacity {capacity}; send {{\"cmd\":\"shutdown\"}} to stop)",
        pos.len(),
        handle.addr(),
    );
    handle.join();
    Ok(())
}

/// Solves a linked database and persists the sealed graph as a `.clasnap`
/// snapshot. The provenance records the object file's content hash under
/// the serve-side scheme, so `cla-tool serve prog.clao --snapshot DIR`
/// (with the snapshot saved as `DIR/graph.clasnap`) starts warm from it.
fn cmd_snapshot_save(args: &[String]) -> Result<(), String> {
    let mut a = Args::new(args);
    let out = a
        .take_value("-o")?
        .unwrap_or_else(|| "a.clasnap".to_string());
    let pos = a.positional();
    let path = pos.first().ok_or("snapshot-save needs a .clao file")?;
    let db = load_database(path)?;

    let opts = SolveOptions::default();
    let t = std::time::Instant::now();
    let sealed = cla::core::Warm::from_database(&db, opts).seal();
    let solve_time = t.elapsed();
    let prov = cla::serve::object_provenance(path, db.content_hash(), opts);
    let written = cla::snap::save(std::path::Path::new(&out), &prov, &sealed)
        .map_err(|e| format!("cannot write `{out}`: {e}"))?;
    eprintln!(
        "snapshot {out}: {} objects, {written} bytes, solved in {solve_time:?} ({} passes)",
        sealed.object_count(),
        sealed.stats().passes
    );
    Ok(())
}

/// Prints a snapshot's header, section table, and provenance without
/// loading the graph: the file is read only through the provenance section,
/// whose checksum alone is verified — what a warm-start viability check
/// costs.
fn cmd_snapshot_info(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("snapshot-info needs a .clasnap file")?;
    let snap = cla::snap::Snapshot::open_head(std::path::Path::new(path))
        .map_err(|e| format!("`{path}`: {e}"))?;
    let prov = snap.provenance();
    println!(
        "snapshot {path}: format v{}, {} objects, {} sections",
        cla::snap::VERSION,
        snap.object_count(),
        snap.section_table().len()
    );
    println!(
        "provenance: options_fp={:016x} cache={} cycle_elim={}",
        prov.options_fp, prov.solver.cache, prov.solver.cycle_elim
    );
    for (name, hash) in &prov.inputs {
        println!("  input {name} hash={hash:016x}");
    }
    println!("sections:");
    for s in snap.section_table() {
        let name = cla::snap::SnapSectionId::from_u32(s.id)
            .map(|i| i.name())
            .unwrap_or("?");
        println!(
            "  {:<8} id={} offset={} len={} checksum={:016x}",
            name, s.id, s.offset, s.len, s.checksum
        );
    }
    Ok(())
}

/// Deterministic fault injection over a real object file: truncation at
/// every byte offset, seeded bit flips, and section-table shuffles, each
/// asserting the invariant *open/block either returns correct data or a
/// typed `DbError` — never a panic, never a wrong answer*. With
/// `--snapshot` the same harness targets the `.clasnap` format instead,
/// fuzzing an in-memory snapshot built from the input program.
fn cmd_db_fuzz(args: &[String]) -> Result<(), String> {
    let mut a = Args::new(args);
    let iters: u64 = a.take_number("--iters")?.unwrap_or(500);
    let seed: u64 = a.take_number("--seed")?.unwrap_or(1);
    let fuzz_snapshot = a.take_flag("--snapshot");
    let pp = a.pp_options()?;
    let pos = a.positional();
    if pos.is_empty() {
        return Err("db-fuzz needs C sources or a .clao file".to_string());
    }

    // A .clao positional is fuzzed as-is; C sources are compiled and linked
    // in-memory first, so the harness always works over a real multi-section
    // object file.
    let bytes = if pos.len() == 1 && pos[0].ends_with(".clao") {
        std::fs::read(&pos[0]).map_err(|e| format!("cannot read `{}`: {e}", pos[0]))?
    } else {
        let lower = LowerOptions::default();
        let mut units = Vec::new();
        for src in &pos {
            let (unit, _) = compile_file(&OsFs, src, &pp, &lower).map_err(|e| e.to_string())?;
            units.push(unit);
        }
        link_objects("fuzz-target", &units).object.bytes().to_vec()
    };

    // `--snapshot` retargets the harness: solve the program, seal it, and
    // encode the result as a .clasnap — the mutants then attack the
    // snapshot reader against a pristine-load oracle.
    let (bytes, format) = if fuzz_snapshot {
        let db = Database::open(bytes).map_err(|e| e.to_string())?;
        let opts = SolveOptions::default();
        let sealed = cla::core::Warm::from_database(&db, opts).seal();
        let prov = cla::serve::object_provenance("fuzz-target", db.content_hash(), opts);
        (cla::snap::encode(&prov, &sealed), "snapshot")
    } else {
        (bytes, "object")
    };

    eprintln!(
        "db-fuzz: {format} format, {} bytes, seed {seed}, {iters} bit-flip iters (+ full truncation sweep + section shuffles{})",
        bytes.len(),
        if fuzz_snapshot {
            ""
        } else {
            " + resealed references"
        }
    );
    let report = if fuzz_snapshot {
        cla::snap::fault::run_snap_fuzz(&bytes, seed, iters)
            .map_err(|e| format!("pristine snapshot does not decode: {e}"))?
    } else {
        // An admitted mutant must also survive the solver, which indexes
        // by every id the database hands it.
        let solve = |db: &Database| drop(cla::core::solve_database(db, SolveOptions::default()));
        cla_cladb::fault::run_object_fuzz(&bytes, seed, iters, solve)
            .map_err(|e| format!("pristine input does not decode: {e}"))?
    };
    println!("{report}");
    if report.ok() {
        Ok(())
    } else {
        Err(format!(
            "integrity holes found: {} wrong-answer, {} panics",
            report.wrong.len(),
            report.panics.len()
        ))
    }
}

/// Hostile-input fuzzing of the frontend: deterministic mutants of a C
/// corpus (byte flips, truncations, token splices, deep nesting, macro
/// bombs, include cycles) pushed through the real compile path under a
/// [`FrontendLimits`] budget. The invariant is the quarantine contract:
/// *typed error or valid object — never a panic, never an unbounded stall.*
/// The corpus is the positional C files, `--gen profile.toml` generates a
/// synthetic corpus in memory instead (pure function of profile + seed).
fn cmd_front_fuzz(args: &[String]) -> Result<(), String> {
    let mut a = Args::new(args);
    let iters: u64 = a.take_number("--iters")?.unwrap_or(2000);
    let seed: u64 = a.take_number("--seed")?.unwrap_or(1);
    let deadline_ms: Option<u64> = a.take_number("--deadline-ms")?;
    let gen_profile = a.take_value("--gen")?;
    let pos = a.positional();

    let mut corpus: Vec<(String, String)> = Vec::new();
    if let Some(profile_path) = &gen_profile {
        let profile = cla::genc::Profile::load(std::path::Path::new(profile_path))
            .map_err(|e| e.to_string())?;
        cla::genc::generate_with(&profile, seed, &mut |name, text| {
            corpus.push((name.to_string(), text.to_string()));
            Ok(())
        })
        .map_err(|e| format!("generation failed: {e}"))?;
    }
    for src in &pos {
        let text = std::fs::read_to_string(src).map_err(|e| format!("cannot read `{src}`: {e}"))?;
        corpus.push((src.clone(), text));
    }
    if corpus.is_empty() {
        return Err("front-fuzz needs C sources or --gen profile.toml".to_string());
    }

    let mut limits = cla::core::frontfuzz::fuzz_limits();
    if let Some(ms) = deadline_ms {
        limits.deadline_ms = ms;
    }
    eprintln!(
        "front-fuzz: {} corpus files, seed {seed}, {iters} mutants, deadline {}ms",
        corpus.len(),
        limits.deadline_ms
    );
    let report = cla::core::frontfuzz::run_front_fuzz(&corpus, seed, iters, &limits);
    println!("{report}");
    if report.ok() {
        Ok(())
    } else {
        Err(format!(
            "frontend integrity holes found: {} panics, {} deadline overruns",
            report.panics.len(),
            report.overruns.len()
        ))
    }
}

fn cmd_ctx(args: &[String]) -> Result<(), String> {
    let mut a = Args::new(args);
    let k: usize = a.take_number("-k")?.ok_or("ctx needs -k N")?;
    let out = a.take_value("-o")?.ok_or("ctx needs -o out.clao")?;
    let pos = a.positional();
    let path = pos.first().ok_or("ctx needs a .clao file")?;
    let db = load_database(path)?;
    let unit = db.to_unit().map_err(|e| e.to_string())?;
    let (dup, stats) = transform::duplicate_contexts(&unit, k);
    let bytes = write_object(&dup);
    cla_cladb::atomic_write_bytes(std::path::Path::new(&out), &bytes)
        .map_err(|e| format!("cannot write `{out}`: {e}"))?;
    eprintln!(
        "duplicated {} functions ({} sites over up to {k} contexts), +{} objects, +{} assignments -> {out}",
        stats.functions_cloned, stats.sites_distributed, stats.objects_added, stats.assigns_added
    );
    Ok(())
}
