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
//! `compile` links through `core::pipeline::Build`, as `analyze` and
//! `serve` do, so the object it writes is the program `analyze` links from
//! the same sources and options, byte for byte (named `a.out`, whatever
//! the `-o` path). `analyze` and `serve` accept `--snapshot DIR`: analysis
//! results persist to `DIR/graph.clasnap` (plus a content-addressed compile
//! cache under `DIR/cache` for `analyze`), so an unchanged program skips the
//! solver on the next run and starts warm. `db-fuzz --snapshot` points the
//! fault harness at the snapshot format instead of the object format.
//!
//! Three observability flags work with every command: `--trace FILE`
//! records a Chrome `trace_event` JSONL trace (load it in `chrome://tracing`
//! or Perfetto), `--metrics` prints Prometheus text exposition to stdout
//! after the command finishes, and `--profile FILE` runs the in-process
//! sampling profiler for the whole command, writing a collapsed-stack
//! profile to FILE (feed it to `flamegraph.pl` or speedscope) and a
//! per-span self/total time table to stderr.

use std::io::Write;
use std::process::ExitCode;

mod args;
mod build;
mod check;
mod program;
mod serve;

use args::Args;

/// The one stdout handle: every command prints through it with `write!` /
/// `writeln!`. `println!` would panic on a closed pipe; the process keeps
/// `SIGPIPE` ignored, so that `serve` and `hub` outlive a client that hangs
/// up, and a write to a closed stdout fails with `BrokenPipe`. That ends
/// the command, and `main` exits 0 quietly: the rest has nowhere to go.
pub struct Out {
    closed: bool,
}

impl Out {
    pub fn write_fmt(&mut self, args: std::fmt::Arguments<'_>) -> Result<(), String> {
        std::io::stdout().write_fmt(args).map_err(|e| {
            self.closed = e.kind() == std::io::ErrorKind::BrokenPipe;
            format!("cannot write to stdout: {e}")
        })
    }
}

fn main() -> ExitCode {
    cla::prof::init();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let out = &mut Out { closed: false };
    match run(&argv, out) {
        Err(msg) if !out.closed => {
            eprintln!("cla-tool: {msg}");
            ExitCode::FAILURE
        }
        _ => ExitCode::SUCCESS,
    }
}

/// Runs one command under the global observability flags, which may sit
/// anywhere among its arguments (the last value wins): the command parsers
/// see only their own.
fn run(argv: &[String], out: &mut Out) -> Result<(), String> {
    let mut a = Args::new(argv);
    let trace_path = a.take_value("--trace")?;
    let profile_path = a.take_value("--profile")?;
    let want_metrics = a.take_flag("--metrics");
    let args = a.positional();
    if let Some(path) = &trace_path {
        let w = cla::obs::ChromeTraceWriter::create(std::path::Path::new(path))
            .map_err(|e| format!("cannot open trace file `{path}`: {e}"))?;
        cla::obs::global().set_trace_sink(Some(std::sync::Arc::new(w)));
    }
    // The profiler covers the whole command, so the collapsed profile and
    // the span table include compile, link, and solve in one recording.
    let profiler = profile_path.map(|path| (path, cla::prof::Profiler::start_default()));
    let rest = args.get(1..).unwrap_or_default();
    let result = match args.first().map(String::as_str) {
        Some("compile") => build::compile(rest),
        Some("analyze") => build::analyze(rest, out),
        Some("gen") => build::gen(rest, out),
        Some("ctx") => build::ctx(rest),
        Some("dump") => program::dump(rest, out),
        Some("solve") => program::solve(rest, out),
        Some("depend") => program::depend(rest, out),
        Some("snapshot-save") => program::snapshot_save(rest),
        Some("snapshot-info") => program::snapshot_info(rest, out),
        Some("serve") => serve::serve(rest, out),
        Some("hub") => serve::hub(rest),
        Some("query") => serve::query(rest, out),
        Some("db-fuzz") => check::db_fuzz(rest, out),
        Some("front-fuzz") => check::front_fuzz(rest, out),
        Some("trace-validate") => check::trace_validate(rest, out),
        Some("bench-diff") => check::bench_diff(rest, out),
        Some("help") | None => {
            eprintln!("{USAGE}");
            return Ok(());
        }
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    if let Some((path, profiler)) = profiler {
        let profile = profiler.stop();
        if let Err(e) = std::fs::write(&path, profile.collapsed()) {
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
        // Printed whatever the command's outcome, past the handle: finding
        // stdout closed here must not turn a failed command into exit 0.
        let _ = std::io::stdout().write_all(cla::obs::global().prometheus_text().as_bytes());
    }
    result
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
