//! The build seam: `compile`, `analyze`, `gen` and `ctx` make programs.

use crate::{program::print_points_to, Args, Out};
use cla::core::pipeline::{Build, Built};
use cla::prelude::*;
use std::path::Path;

/// A fresh batch [`Build`] of `files`, linked once with no cache: the route
/// `analyze` takes, so the program is the one it links.
pub fn link_sources(files: Vec<String>, opts: PipelineOptions) -> Result<Built, String> {
    let mut build = Build::new(files, opts, false);
    let built = (build.link(&OsFs, &AnalyzeHooks::default(), false)).map_err(|e| e.to_string())?;
    Ok(built.expect("a first build links"))
}

/// Compiles and links sources to a `.clao`: the program `analyze` links.
pub fn compile(args: &[String]) -> Result<(), String> {
    let mut a = Args::new(args);
    let out = a.take_value("-o")?.unwrap_or_else(|| "a.clao".to_string());
    let opts = a.pipeline_options()?;
    let sources = a.positional();
    if sources.is_empty() {
        return Err("no source files".to_string());
    }
    let Built {
        database, report, ..
    } = link_sources(sources, opts)?;
    let bytes = database.bytes();
    // Temp + fsync + rename: an interrupted compile never leaves a
    // half-written .clao for a later phase to load.
    cla_cladb::atomic_write_bytes(Path::new(&out), bytes)
        .map_err(|e| format!("cannot write `{out}`: {e}"))?;
    let s = &report.link_stats;
    eprintln!(
        "linked {} units ({} source bytes) -> {out}: {} objects ({} symbols merged), {} assignments, {} bytes",
        s.units, report.source_bytes, s.objects_out, s.symbols_merged, s.assigns, bytes.len()
    );
    Ok(())
}

/// Runs the full compile-link-analyze pipeline over OS files and prints a
/// Table 2/3-style report. With `--trace`/`--metrics` this is the
/// one-command way to record spans from every layer.
pub fn analyze(args: &[String], out: &mut Out) -> Result<(), String> {
    let mut a = Args::new(args);
    let opts = a.analyze_options()?;
    let snapshot_dir = a.take_value("--snapshot")?;
    let print = a.take_tail("--print");
    let sources = a.positional();
    if sources.is_empty() {
        return Err("no source files".to_string());
    }

    let files: Vec<&str> = sources.iter().map(String::as_str).collect();
    // With `--snapshot DIR` the run persists its results: compiled objects
    // land in a content-addressed cache under DIR/cache, the linked program
    // in DIR/program-<key>.clao and the sealed graph in DIR/graph.clasnap.
    // An unchanged rerun then skips the compiler (per unchanged file), the
    // link and the solver entirely.
    let analysis = match &snapshot_dir {
        None => cla::core::pipeline::analyze(&OsFs, &files, &opts).map_err(|e| e.to_string())?,
        Some(dir) => {
            let dir = Path::new(dir);
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
    writeln!(
        out,
        "files={} source-bytes={} variables={} assignments={} object-bytes={}",
        r.files,
        r.source_bytes,
        r.program_variables,
        r.assign_counts.total(),
        r.object_size
    )?;
    writeln!(
        out,
        "compile={:?} link={:?} solve={:?} jobs={} peak-buffered-units={} peak-rss-bytes={}",
        r.compile_time, r.link_time, r.solve_time, r.jobs, r.peak_buffered_units, r.peak_rss_bytes
    )?;
    // The link's own split: folding runs while files still compile (inside
    // `compile=`), assembling and opening the program object are `link=`.
    writeln!(
        out,
        "link-phases: symbols={:?} merge={:?} assemble={:?} open={:?}",
        r.link_times.symbols, r.link_times.merge, r.link_times.assemble, r.open_time
    )?;
    writeln!(
        out,
        "passes={} pointer-variables={} relations={} assigns-loaded={}/{}",
        r.solve_stats.passes,
        r.pointer_variables,
        r.relations,
        r.load_stats.assigns_loaded,
        r.load_stats.assigns_in_file
    )?;
    if !r.slowest_files.is_empty() {
        let shown: Vec<String> = r
            .slowest_files
            .iter()
            .map(|(f, d)| format!("{f}={:.3}s", d.as_secs_f64()))
            .collect();
        writeln!(out, "slowest-files: {}", shown.join(" "))?;
    }
    // The quarantine ledger: one line per failed unit with its typed
    // reason, plus a partial marker so scripts can tell answers below
    // cover only the surviving units.
    if r.is_partial() {
        writeln!(
            out,
            "partial=true quarantined={} unknown-summaries={}",
            r.quarantined.len(),
            r.unknown_summaries
        )?;
        for q in &r.quarantined {
            writeln!(out, "quarantined {}: {}", q.file, q.reason)?;
        }
    }
    if snapshot_dir.is_some() {
        // A partial run bypasses the store: nothing was loaded or written.
        writeln!(
            out,
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
        )?;
    }
    print_points_to(&analysis.database, &analysis.points_to, &print, out)
}

/// Generates a synthetic C codebase from a declarative profile
/// (`profiles/*.toml`), streaming one file at a time to the output
/// directory. The tree is a pure function of `(profile, seed)`.
pub fn gen(args: &[String], out: &mut Out) -> Result<(), String> {
    let mut a = Args::new(args);
    let dir = a.take_value("--out")?.ok_or("`gen` needs `--out DIR`")?;
    let seed: Option<u64> = a.take_parsed("--seed", |v| format!("bad --seed `{v}`"))?;
    let positional = a.positional();
    let [profile_path] = positional.as_slice() else {
        return Err("usage: cla-tool gen <profile.toml> --out DIR [--seed N]".to_string());
    };
    let profile = cla::genc::Profile::load(Path::new(profile_path)).map_err(|e| e.to_string())?;
    let seed = seed.unwrap_or(profile.seed);
    let started = std::time::Instant::now();
    let report = cla::genc::generate_to_dir(&profile, seed, Path::new(&dir))
        .map_err(|e| format!("cannot write `{dir}`: {e}"))?;
    writeln!(
        out,
        "generated {} ({} files + {}) in {:?}",
        report.name,
        report.files,
        cla::genc::HEADER_NAME,
        started.elapsed()
    )?;
    writeln!(
        out,
        "loc={} bytes={} functions={} statements={} seed={} tree-hash={:016x}",
        report.loc,
        report.bytes,
        report.functions,
        report.statements,
        report.seed,
        report.tree_hash
    )
}

pub fn ctx(args: &[String]) -> Result<(), String> {
    let mut a = Args::new(args);
    let k: usize = a.take_number("-k")?.ok_or("ctx needs -k N")?;
    let out = a.take_value("-o")?.ok_or("ctx needs -o out.clao")?;
    let pos = a.positional();
    let path = pos.first().ok_or("ctx needs a .clao file")?;
    let db = crate::program::load_database(path)?;
    let unit = db.to_unit().map_err(|e| e.to_string())?;
    let (dup, stats) = cla_cladb::transform::duplicate_contexts(&unit, k);
    let bytes = write_object(&dup);
    cla_cladb::atomic_write_bytes(Path::new(&out), &bytes)
        .map_err(|e| format!("cannot write `{out}`: {e}"))?;
    eprintln!(
        "duplicated {} functions ({} sites over up to {k} contexts), +{} objects, +{} assignments -> {out}",
        stats.functions_cloned, stats.sites_distributed, stats.objects_added, stats.assigns_added
    );
    Ok(())
}
