//! The end-to-end compile-link-analyze pipeline.
//!
//! Drives the three CLA phases over a set of source files: parallel
//! per-file compilation (the architecture explicitly supports separate
//! and/or parallel compilation — paper §1), linking into one program
//! database, and demand-driven points-to analysis. Produces the timing and
//! space measurements the paper's Tables 2 and 3 report.
//!
//! One module per decision: `hooks` (the store contract), `build`
//! ([`Build::link`]), `unit` (one file's keyed compile, beside its
//! `closure`), `pool` (the compile pool) and `report`.

mod build;
mod closure;
mod hooks;
mod pool;
mod report;
mod unit;

pub use build::{Build, Built};
pub use closure::{manifest_key, Closure, Manifest, SourceProbe, MANIFEST_FORMAT};
pub use hooks::{
    closure_hash, load_or_fixpoint, options_fingerprint, program_key, AnalyzeHooks, CompileCache,
    Provenance, SnapshotHook, Solved,
};
pub(crate) use pool::{panic_message, resolve_jobs};
pub use report::{Report, SLOWEST_FILES_CAP};

use crate::pretransitive::SolveOptions;
use crate::solution::PointsTo;
use cla_cfront::{CError, FileProvider, PpOptions};
use cla_cladb::{Database, DbError};
use cla_ir::LowerOptions;
use std::fmt;

/// An error from any phase of the pipeline.
///
/// Compile errors come from the frontend; database errors come from opening
/// the linked object file. The latter were previously treated as impossible
/// (`expect`), but a pipeline whose output goes through a filesystem — or a
/// caller that routes pre-built object bytes here — must surface corruption
/// as a value, not a panic (DESIGN.md §10).
#[derive(Debug)]
pub enum PipelineError {
    /// A frontend (preprocess/parse/lower) error.
    Frontend(CError),
    /// The linked database failed to open or verify.
    Db(DbError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Frontend(e) => write!(f, "{e}"),
            PipelineError::Db(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<CError> for PipelineError {
    fn from(e: CError) -> Self {
        PipelineError::Frontend(e)
    }
}

impl From<DbError> for PipelineError {
    fn from(e: DbError) -> Self {
        PipelineError::Db(e)
    }
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    pub pp: PpOptions,
    pub lower: LowerOptions,
    pub solver: SolveOptions,
    /// Compile source files on a thread pool.
    pub parallel_compile: bool,
    /// Cap on the compile thread pool: at most this many worker threads
    /// (0 = one thread per CPU). Only consulted with `parallel_compile`.
    pub jobs: usize,
    /// Fail fast: the first frontend error (or compile panic, surfaced as a
    /// typed error) aborts the run. When false, failing units are
    /// quarantined into [`Report::quarantined`] and the analysis continues
    /// over every unit that survived (DESIGN.md §14). The library default
    /// stays fail-fast; `cla-tool analyze` runs quarantine-and-continue
    /// unless `--strict` is passed.
    pub strict: bool,
    /// With quarantined units present, give every referenced-but-undefined
    /// global symbol a conservative PIP-style unknown summary at link time (see
    /// [`ObjectLinker::finish`](cla_cladb::ObjectLinker::finish)):
    /// sound-leaning answers instead of silently missing flows. Off by default
    /// — answers stay minimal.
    pub unknown_summaries: bool,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            pp: PpOptions::default(),
            lower: LowerOptions::default(),
            solver: SolveOptions::default(),
            parallel_compile: false,
            jobs: 0,
            strict: true,
            unknown_summaries: false,
        }
    }
}

/// Why a unit landed in the quarantine ledger.
#[derive(Debug, Clone)]
pub enum QuarantineReason {
    /// A typed frontend error, including [`CError::Budget`] overruns.
    Error(CError),
    /// The compile panicked; the payload carries the panic message. The
    /// pool catches the panic, so one poisoned unit never kills a worker
    /// (or strands the backpressure condvar).
    Panic(String),
}

impl QuarantineReason {
    /// True when the unit exceeded a [`cla_cfront::FrontendLimits`] budget.
    pub fn is_budget(&self) -> bool {
        matches!(self, QuarantineReason::Error(e) if e.is_budget())
    }
}

impl fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuarantineReason::Error(e) => write!(f, "{e}"),
            QuarantineReason::Panic(msg) => write!(f, "compile panicked: {msg}"),
        }
    }
}

/// One entry of the per-file quarantine ledger.
#[derive(Debug, Clone)]
pub struct Quarantined {
    /// The input file as given to [`analyze`].
    pub file: String,
    pub reason: QuarantineReason,
}

impl Quarantined {
    /// Opens a ledger entry for `file`, bumping the process-wide frontend
    /// quarantine counters, so the `metrics` exposition covers batch runs
    /// and lenient serve sessions alike.
    pub fn note(file: impl Into<String>, reason: QuarantineReason) -> Quarantined {
        let obs = cla_obs::global();
        obs.counter("cla_front_quarantined_total").inc();
        if reason.is_budget() {
            obs.counter("cla_front_budget_exceeded_total").inc();
        }
        Quarantined {
            file: file.into(),
            reason,
        }
    }
}

/// The outcome of a full compile-link-analyze run.
#[derive(Debug)]
pub struct Analysis {
    /// Points-to sets over the linked program's objects.
    pub points_to: PointsTo,
    /// The linked program database (shared with the dependence analysis).
    pub database: Database,
    /// Measurements.
    pub report: Report,
}

/// Compiles `files` from `fs`, links them, writes the program database, and
/// runs the demand-driven pre-transitive solver.
///
/// # Errors
///
/// Returns the first frontend error encountered, or a database error if the
/// freshly linked object file fails to open (which would indicate damage
/// between write and read, or a writer bug — either way a typed error, not
/// a panic).
pub fn analyze(
    fs: &dyn FileProvider,
    files: &[&str],
    opts: &PipelineOptions,
) -> Result<Analysis, PipelineError> {
    analyze_with(fs, files, opts, &AnalyzeHooks::default())
}

/// [`analyze`] with persistence hooks: an optional compile cache (per-file
/// object reuse keyed by the preprocessed closure) and an optional snapshot
/// hook (skip the solve entirely when a saved graph's provenance matches).
/// With both hooks a warm restart does no parsing, no lowering, no link and
/// no fixpoint. It is a fresh [`Build`] linked once, then
/// [`load_or_fixpoint`]; a fixpoint is sealed and saved at once, and a run
/// with both hooks and no quarantined unit saves the program it linked.
///
/// # Errors
///
/// Same as [`analyze`]. Hook failures are never errors: a missing or
/// mismatched cache entry, stored program or snapshot just falls back to
/// the real work.
pub fn analyze_with(
    fs: &dyn FileProvider,
    files: &[&str],
    opts: &PipelineOptions,
    hooks: &AnalyzeHooks<'_>,
) -> Result<Analysis, PipelineError> {
    let files = files.iter().map(|f| (*f).to_string()).collect();
    let built = Build::new(files, opts.clone(), false).link(fs, hooks, false)?;
    let Built {
        database: db,
        mut report,
        provenance: prov,
        graph,
        ..
    } = built.expect("a first build links");
    let sp = cla_obs::global().span("pipeline", "pipeline.solve");
    // Partial runs bypass the snapshot store in both directions: a
    // quarantined file keys as 0 in the provenance, so persisting (or
    // serving) a partial graph under it would alias distinct hostile
    // inputs to one snapshot.
    let snapshot_hook = if report.is_partial() {
        None
    } else {
        hooks.snapshots
    };
    // Only a run keyed by manifests can open a stored program, so without
    // a compile cache there is no next run to save it for.
    let program_hook =
        snapshot_hook.filter(|_| !report.program_loaded && hooks.compile_cache.is_some());
    let (sealed, snapshot_loaded) = std::thread::scope(|scope| {
        // The program's durable write overlaps the solve; both only read
        // `db`.
        if let Some(hook) = program_hook {
            scope.spawn(|| hook.save_program(&prov, db.bytes()));
        }
        match load_or_fixpoint(&db, snapshot_hook, &prov, graph) {
            Solved::Loaded(sealed) => (sealed, true),
            // A batch run answers every object: it seals at once, and
            // saves the graph so the next run comes back warm.
            Solved::Fixpoint(warm) => {
                let sealed = warm.seal();
                if let Some(hook) = snapshot_hook {
                    hook.save(&prov, &sealed);
                }
                (sealed, false)
            }
        }
    });
    let points_to = sealed.extract_by_kind(db.ids().map(|o| db.kind(o)));
    report.solve_stats = sealed.stats();
    report.solve_time = sp.finish();
    report.load_stats = db.load_stats();
    report.pointer_variables = points_to.pointer_variables();
    report.relations = points_to.relations();
    report.snapshot_loaded = snapshot_loaded;
    report.peak_rss_bytes = cla_obs::peak_rss_bytes();
    Ok(Analysis {
        points_to,
        database: db,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::pool::compile_all;
    use super::*;
    use cla_cfront::MemoryFs;
    use std::time::Duration;

    fn fs_of(files: &[(&str, &str)]) -> MemoryFs {
        let mut fs = MemoryFs::new();
        for (p, c) in files {
            fs.add(*p, *c);
        }
        fs
    }

    #[test]
    fn end_to_end_two_files() {
        let fs = fs_of(&[
            ("a.c", "int target; int *p; void fa(void) { p = &target; }"),
            ("b.c", "extern int *p; int *q; void fb(void) { q = p; }"),
        ]);
        let analysis = analyze(&fs, &["a.c", "b.c"], &PipelineOptions::default()).unwrap();
        let db = &analysis.database;
        let q = db.targets("q")[0];
        let target = db.targets("target")[0];
        assert!(analysis.points_to.may_point_to(q, target));
        let r = &analysis.report;
        assert_eq!(r.files, 2);
        assert!(r.object_size > 0);
        assert!(r.pointer_variables >= 2);
        assert!(r.relations >= 2);
        assert!(r.source_bytes > 0);
        // Per-file attribution: both files ranked, costliest first.
        assert_eq!(r.slowest_files.len(), 2);
        assert!(r.slowest_files[0].1 >= r.slowest_files[1].1);
        assert!(r.slowest_files.iter().any(|(f, _)| f == "a.c"));
    }

    #[test]
    fn parallel_compile_matches_serial() {
        let files: Vec<(String, String)> = (0..8)
            .map(|i| {
                (
                    format!("f{i}.c"),
                    format!("int g{i}; int *p{i}; void fn{i}(void) {{ p{i} = &g{i}; }}"),
                )
            })
            .collect();
        let mut fs = MemoryFs::new();
        for (p, c) in &files {
            fs.add(p.clone(), c.clone());
        }
        let names: Vec<&str> = files.iter().map(|(p, _)| p.as_str()).collect();
        let serial = analyze(&fs, &names, &PipelineOptions::default()).unwrap();
        let par = analyze(
            &fs,
            &names,
            &PipelineOptions {
                parallel_compile: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(serial.points_to, par.points_to);
        assert_eq!(serial.report.assign_counts, par.report.assign_counts);
    }

    #[test]
    fn compile_errors_propagate() {
        let fs = fs_of(&[("bad.c", "int x = ;")]);
        assert!(analyze(&fs, &["bad.c"], &PipelineOptions::default()).is_err());
        let fs = fs_of(&[("missing_include.c", "#include \"nope.h\"\n")]);
        assert!(analyze(&fs, &["missing_include.c"], &PipelineOptions::default()).is_err());
    }

    #[test]
    fn quarantine_and_continue_lenient() {
        let fs = fs_of(&[
            (
                "good.c",
                "int target; int *p; void fa(void) { p = &target; }",
            ),
            ("bad.c", "int x = ;"),
            ("worse.c", "#include \"nope.h\"\n"),
        ]);
        let opts = PipelineOptions {
            strict: false,
            ..Default::default()
        };
        let a = analyze(&fs, &["good.c", "bad.c", "worse.c"], &opts).unwrap();
        let r = &a.report;
        assert!(r.is_partial());
        assert_eq!(r.quarantined.len(), 2);
        // Ledger is sorted by input order and names exactly the failing files.
        assert_eq!(r.quarantined[0].file, "bad.c");
        assert_eq!(r.quarantined[1].file, "worse.c");
        assert!(matches!(
            r.quarantined[0].reason,
            QuarantineReason::Error(_)
        ));
        // The surviving unit still answers queries.
        let p = a.database.targets("p")[0];
        let target = a.database.targets("target")[0];
        assert!(a.points_to.may_point_to(p, target));
    }

    #[test]
    fn quarantine_parallel_matches_serial() {
        let mut files: Vec<(String, String)> = (0..12)
            .map(|i| {
                (
                    format!("f{i}.c"),
                    format!("int g{i}; int *p{i}; void fn{i}(void) {{ p{i} = &g{i}; }}"),
                )
            })
            .collect();
        files[3].1 = "int broken = ;".to_string();
        files[9].1 = "#include \"missing.h\"\n".to_string();
        let mut fs = MemoryFs::new();
        for (p, c) in &files {
            fs.add(p.clone(), c.clone());
        }
        let names: Vec<&str> = files.iter().map(|(p, _)| p.as_str()).collect();
        let lenient = PipelineOptions {
            strict: false,
            ..Default::default()
        };
        let serial = analyze(&fs, &names, &lenient).unwrap();
        let par = analyze(
            &fs,
            &names,
            &PipelineOptions {
                parallel_compile: true,
                ..lenient.clone()
            },
        )
        .unwrap();
        assert_eq!(serial.points_to, par.points_to);
        let ledger = |a: &Analysis| -> Vec<String> {
            a.report
                .quarantined
                .iter()
                .map(|q| q.file.clone())
                .collect()
        };
        assert_eq!(ledger(&serial), vec!["f3.c", "f9.c"]);
        assert_eq!(ledger(&serial), ledger(&par));
    }

    #[test]
    fn strict_parallel_still_fails_fast_on_panic_free_error() {
        let fs = fs_of(&[("ok.c", "int a;"), ("bad.c", "int x = ;")]);
        let opts = PipelineOptions {
            parallel_compile: true,
            ..Default::default()
        };
        assert!(analyze(&fs, &["ok.c", "bad.c"], &opts).is_err());
    }

    #[test]
    #[should_panic(expected = "sink gave up")]
    fn a_panicking_sink_unwinds_instead_of_stranding_the_workers() {
        // Index 0 is delivered last, so by then the other workers sit in
        // the backpressure wait — and must be woken for the scope to end.
        let names: Vec<String> = (0..64).map(|i| format!("f{i}.c")).collect();
        let files: Vec<&str> = names.iter().map(String::as_str).collect();
        let slow_first = |f: &str| {
            if f == "f0.c" {
                std::thread::sleep(Duration::from_millis(50));
            }
            Ok(())
        };
        let _ = compile_all(
            &files,
            4,
            false,
            |_, f| slow_first(f),
            |i, _, _| {
                assert!(i != 0, "sink gave up");
                0
            },
        );
    }

    #[test]
    fn unknown_summaries_inject_conservative_answers() {
        // `ext_p` and `ext_fn` are referenced but never defined (their
        // defining unit is quarantined), so with `unknown_summaries` every
        // read of them conservatively yields the `<unknown>` object.
        let fs = fs_of(&[
            (
                "use.c",
                "extern int *ext_p; extern int *ext_fn(int *a);
                 int *q, *r, local;
                 void f(void) { q = ext_p; r = ext_fn(&local); }",
            ),
            ("def.c", "int x = ;"),
        ]);
        let opts = PipelineOptions {
            strict: false,
            unknown_summaries: true,
            ..Default::default()
        };
        let a = analyze(&fs, &["use.c", "def.c"], &opts).unwrap();
        assert!(a.report.unknown_summaries >= 2);
        let unknown = a.database.targets("<unknown>")[0];
        let q = a.database.targets("q")[0];
        let r = a.database.targets("r")[0];
        assert!(a.points_to.may_point_to(q, unknown));
        assert!(a.points_to.may_point_to(r, unknown));

        // Without the flag the flows are silently missing (minimal answers).
        let bare = analyze(
            &fs,
            &["use.c", "def.c"],
            &PipelineOptions {
                strict: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(bare.report.unknown_summaries, 0);
        assert!(bare.database.targets("<unknown>").is_empty());
    }

    #[test]
    fn budget_overrun_is_quarantined_with_budget_reason() {
        let bomb = "#define A0 x\n#define A1 A0 A0\n#define A2 A1 A1\n\
                    #define A3 A2 A2\n#define A4 A3 A3\n#define A5 A4 A4\n\
                    #define A6 A5 A5\n#define A7 A6 A6\n#define A8 A7 A7\n\
                    int arr[1] = {0}; /* A8 */\nint y = A8;\n";
        let fs = fs_of(&[("bomb.c", bomb), ("ok.c", "int fine;")]);
        let mut opts = PipelineOptions {
            strict: false,
            ..Default::default()
        };
        opts.pp.limits.macro_fuel = 64;
        let a = analyze(&fs, &["bomb.c", "ok.c"], &opts).unwrap();
        assert_eq!(a.report.quarantined.len(), 1);
        assert_eq!(a.report.quarantined[0].file, "bomb.c");
        assert!(a.report.quarantined[0].reason.is_budget());
        assert!(!a.database.targets("fine").is_empty());
    }

    #[test]
    fn report_load_accounting() {
        let fs = fs_of(&[(
            "a.c",
            "int x, *p; void f(void) { p = &x; }
             int i0, i1; void g(void) { i0 = i1; }",
        )]);
        let a = analyze(&fs, &["a.c"], &PipelineOptions::default()).unwrap();
        let ls = a.report.load_stats;
        assert!(ls.assigns_in_file >= 2);
        // The integer-only chain must not be loaded.
        assert!(ls.assigns_loaded < ls.assigns_in_file);
    }
}
