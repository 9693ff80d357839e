//! The checking seam: `db-fuzz`, `front-fuzz`, `trace-validate`, `bench-diff`.

use crate::{build::link_sources, Args, Out};
use cla::prelude::*;

/// Validates a `--trace` output file: the streaming `trace_event` array
/// must hold one JSON object per line, every event needs `ph`/`name`/`ts`,
/// `B`/`E` pairs must nest properly per thread, and profiler sample events
/// (`ph:"P"`, emitted when `--trace` and `--profile` run together) must
/// carry their collapsed stack in `args.stack`.
pub fn trace_validate(args: &[String], out: &mut Out) -> Result<(), String> {
    use cla::serve::json::{parse, Value};
    use std::collections::HashMap;

    let path = args.first().ok_or("trace-validate needs a trace file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let (mut events, mut spans, mut samples) = (0usize, 0usize, 0usize);
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
        let field = |k| {
            (v.get(k).and_then(Value::as_str))
                .ok_or(format!("{path}:{lineno}: event missing `{k}`"))
        };
        let (ph, name) = (field("ph")?, field("name")?);
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
            // Instants, counters, metadata and the rest are self-contained.
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
    writeln!(
        out,
        "trace OK: {events} events, {spans} balanced spans, {samples} profiler samples"
    )
}

/// Diffs two bench JSON reports (the `BENCH_*.json` files written by the
/// benchmark examples) phase by phase. Every numeric key ending in `_secs`
/// is a phase; a phase that slowed down past `--ceiling` percent (and past
/// a small absolute floor, so micro-runs aren't noise-gated) is a
/// regression and the command exits nonzero naming it. `--history FILE`
/// appends the new report to an append-only `BENCH_history.jsonl`.
pub fn bench_diff(args: &[String], out: &mut Out) -> Result<(), String> {
    use cla::serve::json::{parse, Value};
    use std::collections::{BTreeMap, BTreeSet};

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

    let load = |path: &str| -> Result<BTreeMap<String, Value>, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        match parse(text.trim()).map_err(|e| format!("`{path}`: bad JSON: {e}"))? {
            Value::Obj(map) => Ok(map),
            _ => Err(format!("`{path}`: not a JSON object")),
        }
    };
    let (old, new) = (load(old_path)?, load(new_path)?);
    let num = |m: &BTreeMap<String, Value>, k: &str| match m.get(k) {
        Some(Value::Num(n)) => Some(*n),
        _ => None,
    };

    let phases: BTreeSet<&String> = (old.keys().chain(new.keys()))
        .filter(|k| k.ends_with("_secs"))
        .collect();
    if phases.is_empty() {
        return Err("no `*_secs` phase keys found in either report".to_string());
    }

    // Sub-10ms phases jitter by whole multiples of themselves on shared CI
    // runners; the absolute floor keeps them from tripping the gate.
    const ABS_FLOOR_SECS: f64 = 0.01;
    let mut regressions = Vec::new();
    let mut compared = 0usize;
    writeln!(
        out,
        "{:<18} {:>10} {:>10} {:>8}",
        "phase", "old", "new", "delta"
    )?;
    for ph in &phases {
        match (num(&old, ph), num(&new, ph)) {
            (Some(o), Some(n)) => {
                compared += 1;
                let pct = if o > 0.0 { (n - o) / o * 100.0 } else { 0.0 };
                let regressed = n > o * (1.0 + ceiling / 100.0) && n - o > ABS_FLOOR_SECS;
                writeln!(
                    out,
                    "{ph:<18} {o:>9.3}s {n:>9.3}s {pct:>+7.1}%{}",
                    if regressed { "  REGRESSION" } else { "" }
                )?;
                if regressed {
                    regressions.push(format!("{ph} {o:.3}s -> {n:.3}s (+{pct:.1}%)"));
                }
            }
            (None, Some(n)) => writeln!(out, "{ph:<18} {:>10} {n:>9.3}s    (new)", "-")?,
            (Some(o), None) => writeln!(out, "{ph:<18} {o:>9.3}s {:>10}  (gone)", "-")?,
            (None, None) => {}
        }
    }
    if let (Some(o), Some(n)) = (num(&old, "peak_rss_bytes"), num(&new, "peak_rss_bytes")) {
        let pct = if o > 0.0 { (n - o) / o * 100.0 } else { 0.0 };
        writeln!(
            out,
            "{:<18} {:>9.1}M {:>9.1}M {pct:>+7.1}%  (informational)",
            "peak_rss",
            o / 1e6,
            n / 1e6
        )?;
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
                .filter_map(|p| num(&new, p).map(|v| (p.to_string(), v)))
                .collect(),
            peak_rss_bytes: num(&new, "peak_rss_bytes").unwrap_or(0.0) as u64,
        };
        cla::prof::history::append(std::path::Path::new(hist), &entry)
            .map_err(|e| format!("cannot append history `{hist}`: {e}"))?;
        eprintln!("history: appended `{}` entry to {hist}", entry.label);
    }

    if regressions.is_empty() {
        writeln!(
            out,
            "bench-diff OK: {compared} phases within the {ceiling}% ceiling"
        )
    } else {
        Err(format!(
            "{} phase regression(s) past the {ceiling}% ceiling:\n  {}",
            regressions.len(),
            regressions.join("\n  ")
        ))
    }
}

/// Deterministic fault injection over a real object file: truncation at
/// every byte offset, seeded bit flips, and section-table shuffles, each
/// asserting the invariant *open/block either returns correct data or a
/// typed `DbError` — never a panic, never a wrong answer*. With
/// `--snapshot` the same harness targets the `.clasnap` format instead,
/// fuzzing an in-memory snapshot built from the input program.
pub fn db_fuzz(args: &[String], out: &mut Out) -> Result<(), String> {
    let mut a = Args::new(args);
    let iters: u64 = a.take_number("--iters")?.unwrap_or(500);
    let seed: u64 = a.take_number("--seed")?.unwrap_or(1);
    let fuzz_snapshot = a.take_flag("--snapshot");
    let pp = a.pp_options()?;
    let pos = a.positional();
    if pos.is_empty() {
        return Err("db-fuzz needs C sources or a .clao file".to_string());
    }

    // A .clao positional is fuzzed as-is; C sources are linked in memory
    // first, as `compile` links them, so the harness always works over a
    // real multi-section object file.
    let bytes = if pos.len() == 1 && pos[0].ends_with(".clao") {
        std::fs::read(&pos[0]).map_err(|e| format!("cannot read `{}`: {e}", pos[0]))?
    } else {
        let opts = PipelineOptions {
            pp,
            ..PipelineOptions::default()
        };
        link_sources(pos, opts)?.database.bytes().to_vec()
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
    writeln!(out, "{report}")?;
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
pub fn front_fuzz(args: &[String], out: &mut Out) -> Result<(), String> {
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
    limits.deadline_ms = deadline_ms.unwrap_or(limits.deadline_ms);
    eprintln!(
        "front-fuzz: {} corpus files, seed {seed}, {iters} mutants, deadline {}ms",
        corpus.len(),
        limits.deadline_ms
    );
    let report = cla::core::frontfuzz::run_front_fuzz(&corpus, seed, iters, &limits);
    writeln!(out, "{report}")?;
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
