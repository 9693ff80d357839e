//! The end-to-end compile-link-analyze pipeline.
//!
//! Drives the three CLA phases over a set of source files: parallel
//! per-file compilation (the architecture explicitly supports separate
//! and/or parallel compilation — paper §1), linking into one program
//! database, and demand-driven points-to analysis. Produces the timing and
//! space measurements the paper's Tables 2 and 3 report.

pub use crate::closure::{manifest_key, Closure, Manifest, SourceProbe, MANIFEST_FORMAT};
use crate::pretransitive::{SealedGraph, SolveOptions, SolveStats, Warm};
use crate::solution::PointsTo;
use cla_cfront::{CError, FileProvider, PpOptions, Preprocessed};
use cla_cladb::{
    xxh64, Database, DbError, LinkStats, LinkTimes, LoadStats, ObjectLinker, StreamLinker,
    UnitObject,
};
use cla_ir::{compile_preprocessed, AssignCounts, CompileStats, LowerOptions};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{mpsc, Condvar, Mutex};
use std::time::Duration;

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
    /// global symbol a conservative PIP-style unknown summary at link time
    /// (see [`ObjectLinker::finish`]): sound-leaning answers instead of
    /// silently missing flows. Off by default — answers stay minimal.
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

/// A persistent compile cache, in two levels: file → [`Manifest`] (the
/// closure the file was last built from), and closure key → serialized
/// object file. [`analyze_with`] consults it before compiling each file and
/// feeds it after each miss, so compiles skip across process restarts (the
/// on-disk implementation lives in `cla-snap`). A file whose manifest still
/// holds is keyed without being preprocessed; without manifests (the
/// default methods) every file is preprocessed to find its key.
/// Implementations must tolerate concurrent use — the pipeline calls them
/// from its compile thread pool.
pub trait CompileCache: Send + Sync {
    /// The object bytes previously stored under `key`, if any. Returning
    /// damaged bytes is safe: the pipeline admits them only through
    /// [`UnitObject::verify`] and falls back to a fresh compile on any
    /// error.
    fn load(&self, key: u64) -> Option<Vec<u8>>;
    /// The object stored under `key` stood behind a run's answer without
    /// being read: [`analyze_with`] answered from the program a previous
    /// run linked from it. For the implementation's recency and accounting
    /// (an absent object built nothing and counts nothing); nothing to do
    /// by default.
    fn touch(&self, _key: u64) {}
    /// Persists object bytes under `key` (best effort; errors are the
    /// implementation's to swallow — a failed store only costs a future
    /// recompile).
    fn store(&self, key: u64, bytes: &[u8]);
    /// The bytes [`load`](CompileCache::load) just returned for `key` failed
    /// verification: what looked like a hit is a miss, and the entry is
    /// about to be overwritten by a [`store`](CompileCache::store). For the
    /// implementation's own accounting; nothing to do by default.
    fn reject(&self, _key: u64) {}
    /// The manifest bytes stored under `key` ([`manifest_key`]), if any.
    /// Like objects, they are admitted only through a check
    /// ([`Manifest::decode`]); unlike objects, reading one is not a cache
    /// hit or miss.
    fn load_manifest(&self, _key: u64) -> Option<Vec<u8>> {
        None
    }
    /// Persists manifest bytes under `key` (best effort).
    fn store_manifest(&self, _key: u64, _bytes: &[u8]) {}
    /// The bytes [`load_manifest`](CompileCache::load_manifest) returned
    /// for `key` are damaged; a fresh manifest is about to replace them.
    fn reject_manifest(&self, _key: u64) {}
}

/// Identity of one analysis run: what was analyzed and with which options.
///
/// A snapshot saved under one provenance may only be loaded under an equal
/// provenance — any edited input (headers included: input hashes cover the
/// whole preprocessed closure), changed preprocessor/lowering option, or
/// changed solver option forces a full re-solve instead of stale answers.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Provenance {
    /// Per input file, in command order: (file name, hash of the file's
    /// preprocessed closure — every source read while preprocessing it,
    /// see [`closure_hash`]).
    pub inputs: Vec<(String, u64)>,
    /// Fingerprint of the non-solver options
    /// (see [`options_fingerprint`]).
    pub options_fp: u64,
    /// Solver options the graph was (or will be) solved with.
    pub solver: SolveOptions,
}

/// Short-circuits the link and solve phases of [`analyze_with`] with
/// persisted results (the on-disk snapshot store lives in `cla-snap`).
pub trait SnapshotHook: Send + Sync {
    /// A sealed graph previously saved under exactly this provenance, or
    /// `None` (missing, corrupt, or provenance mismatch — the caller
    /// re-solves in every case).
    fn load(&self, prov: &Provenance) -> Option<SealedGraph>;
    /// Persists a freshly solved graph under `prov` (best effort). Only the
    /// graph: names stay in the linked database every loader holds.
    fn save(&self, prov: &Provenance, sealed: &SealedGraph);
    /// The bytes of the linked program saved under [`program_key`]`(prov)`,
    /// if any. Returning damaged bytes is safe: the pipeline admits them
    /// only through [`Database::admit`] and links afresh on any error.
    fn load_program(&self, _prov: &Provenance) -> Option<Vec<u8>> {
        None
    }
    /// Persists the linked program built from `prov`'s inputs (best
    /// effort).
    fn save_program(&self, _prov: &Provenance, _bytes: &[u8]) {}
}

/// The key a linked program is stored under: the ordered `(file, closure
/// key)` inputs of `prov` and its options fingerprint. Solver options do
/// not shape the program and are left out.
#[must_use]
pub fn program_key(prov: &Provenance) -> u64 {
    let mut acc = prov.options_fp.to_le_bytes().to_vec();
    for (file, key) in &prov.inputs {
        acc.extend_from_slice(&(file.len() as u64).to_le_bytes());
        acc.extend_from_slice(file.as_bytes());
        acc.extend_from_slice(&key.to_le_bytes());
    }
    xxh64(&acc, 0)
}

/// The one route from a linked database to its solved graph, shared by
/// [`analyze_with`] and the serve sessions: a snapshot saved under exactly
/// `prov` is loaded; otherwise `db` is solved with `prov.solver`, sealed,
/// and — when a hook is attached — saved under `prov`, so the *next* start
/// (or a crashed-and-restarted server) comes back warm. Returns the graph
/// and whether it was loaded instead of solved.
pub fn load_or_solve(
    db: &Database,
    snapshots: Option<&dyn SnapshotHook>,
    prov: &Provenance,
) -> (SealedGraph, bool) {
    let loaded = snapshots.and_then(|hook| hook.load(prov));
    solve_unless_loaded(db, snapshots, prov, loaded)
}

/// [`load_or_solve`] once the hook has been asked for `prov`: `loaded` is
/// its answer.
fn solve_unless_loaded(
    db: &Database,
    snapshots: Option<&dyn SnapshotHook>,
    prov: &Provenance,
    loaded: Option<SealedGraph>,
) -> (SealedGraph, bool) {
    if let Some(sealed) = loaded {
        return (sealed, true);
    }
    let sealed = Warm::from_database(db, prov.solver).seal();
    if let Some(hook) = snapshots {
        hook.save(prov, &sealed);
    }
    (sealed, false)
}

/// Optional persistence hooks for [`analyze_with`]. The default (no hooks)
/// makes `analyze_with` behave exactly like [`analyze`].
#[derive(Default)]
pub struct AnalyzeHooks<'a> {
    /// Consulted per file before compiling.
    pub compile_cache: Option<&'a dyn CompileCache>,
    /// Asked for the run's graph, at most once per provenance, and for the
    /// stored program when every file's manifest holds.
    pub snapshots: Option<&'a dyn SnapshotHook>,
}

/// Fingerprint of the options that shape compiled objects: include dirs,
/// defines, include depth, and the lowering configuration. Folded into
/// compile-cache keys and snapshot provenance.
#[must_use]
pub fn options_fingerprint(pp: &PpOptions, lower: &LowerOptions) -> u64 {
    // Debug formatting is stable within one build of the tool, which is the
    // strongest guarantee a cache keyed on in-memory options can need; the
    // object-format version is folded in so cache entries from an older
    // format are never decoded.
    xxh64(
        format!("clav{}|{pp:?}|{lower:?}", cla_cladb::VERSION).as_bytes(),
        0,
    )
}

/// Hash of one file's preprocessed [`Closure`] plus the options
/// fingerprint. Editing the file, any header it includes, an include path,
/// or a define all change the hash.
#[must_use]
pub fn closure_hash(pre: &Preprocessed, file: &str, options_fp: u64) -> u64 {
    Closure::of(pre).key(file, options_fp)
}

/// Everything measured across one pipeline run (one row of Table 2+3).
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub files: usize,
    /// Bytes of source consumed by the compile phase (after include
    /// expansion — the paper's "LOC preproc." proxy).
    pub source_bytes: u64,
    /// Approximate preprocessed line count.
    pub preprocessed_lines: usize,
    /// Program variables (Table 2).
    pub program_variables: usize,
    /// Counts of the five assignment forms (Table 2).
    pub assign_counts: AssignCounts,
    /// Linked object file size in bytes (Table 2 "object size").
    pub object_size: usize,
    pub link_stats: LinkStats,
    /// Demand-loading counters (Table 3 in-core/loaded/in-file).
    pub load_stats: LoadStats,
    pub solve_stats: SolveStats,
    /// Table 3 "pointer variables".
    pub pointer_variables: usize,
    /// Table 3 "points-to relations".
    pub relations: usize,
    pub compile_time: Duration,
    pub link_time: Duration,
    pub solve_time: Duration,
    /// The link by phase. Folding (`symbols`, `merge`) overlaps compilation
    /// and is inside `compile_time`; `assemble` and `open_time` make up
    /// `link_time`. All zero when [`Report::program_loaded`].
    pub link_times: LinkTimes,
    /// `Database::open` of the assembled program object, or the admission
    /// of the stored one ([`Database::admit`]) when
    /// [`Report::program_loaded`].
    pub open_time: Duration,
    /// Files whose object came out of the compile cache (0 without a cache).
    pub compile_cache_hits: usize,
    /// Files that were actually compiled this run.
    pub compile_cache_misses: usize,
    /// Of the hits, files keyed by their manifest instead of by
    /// preprocessing them (direct mode).
    pub compile_cache_direct_hits: usize,
    /// Whether the solve phase was skipped by loading a snapshot.
    pub snapshot_loaded: bool,
    /// Whether the link was skipped by opening the program a previous run
    /// linked from the same inputs (see [`analyze_with`]).
    pub program_loaded: bool,
    /// Compile worker threads actually used (1 without `parallel_compile`).
    pub jobs: usize,
    /// High-water mark of unit objects — encoded bytes, not decoded units —
    /// held in memory while the streaming link waited for an earlier one:
    /// the compile+link phase's real memory exposure, bounded by twice the
    /// thread-pool size, never by the codebase.
    pub peak_buffered_units: usize,
    /// Process peak resident set size in bytes at the end of the run
    /// (Linux `VmHWM`; 0 where unavailable).
    pub peak_rss_bytes: u64,
    /// The most expensive files of the compile phase, costliest first
    /// (wall time of each file's preprocess+parse+lower, capped at
    /// [`SLOWEST_FILES_CAP`] entries). On generated codebases this is how
    /// a profile names the outlier files worth shrinking.
    pub slowest_files: Vec<(String, Duration)>,
    /// Files whose compile failed, panicked, or overran a budget, in input
    /// order with typed reasons. Empty in strict mode (the run would have
    /// aborted instead) and on clean runs.
    pub quarantined: Vec<Quarantined>,
    /// Referenced-but-undefined globals that received conservative unknown
    /// summaries at link time (0 unless quarantine fired with
    /// [`PipelineOptions::unknown_summaries`] on).
    pub unknown_summaries: usize,
}

/// Number of entries retained in [`Report::slowest_files`].
pub const SLOWEST_FILES_CAP: usize = 10;

impl Report {
    /// Table 3 "in core": complex assignments retained by the solver.
    pub fn assigns_in_core(&self) -> usize {
        self.solve_stats.complex_in_core
    }

    /// A rough analysis-memory figure: the solver's structures
    /// ([`SolveStats::approx_bytes`]). The database — its bytes and the
    /// string table it copies — is not counted.
    pub fn approx_analysis_bytes(&self) -> usize {
        self.solve_stats.approx_bytes
    }

    /// True when any unit was quarantined: every answer derived from this
    /// run covers only the surviving units and must be marked partial.
    pub fn is_partial(&self) -> bool {
        !self.quarantined.is_empty()
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
/// no fixpoint.
///
/// The build is load-or-link. With a cache attached, every file is first
/// keyed by its [`Manifest`] on the pool (`cache.direct` spans). With a
/// snapshot hook too and every manifest holding, the inputs are known
/// before anything is built: the graph saved for them is loaded on a
/// thread of its own while the program a previous run linked from them is
/// read back through [`SnapshotHook::load_program`] and admitted as any
/// `.clao` from disk is ([`Database::admit`], in a `pipeline.link` span
/// nested in `pipeline.compile`). An admitted program answers whatever the
/// cache holds: its key ([`program_key`]) covers every file's closure key
/// and the options, object format included, so it is what a fold of those
/// objects links. The units' figures are read off their manifests, no unit
/// object or source is read, and each object is
/// [touched](CompileCache::touch). In every other case, or when no stored
/// program is admitted (a counted miss), the pool builds every unit —
/// loading and verifying its cached object, so a damaged or evicted one is
/// found, counted and recompiled — and folds it into the program as it
/// arrives; a run that could be keyed this way next time (a cache and a
/// snapshot hook, no quarantined unit) saves the program it linked. Both
/// routes report the same counts, and ask the snapshot hook for a graph at
/// most once per provenance.
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
    // Phase times come from the same spans that emit trace events, so the
    // `Report` and a recorded trace can never disagree about a duration.
    let obs = cla_obs::global();
    let options_fp = options_fingerprint(&opts.pp, &opts.lower);
    let pool_jobs = if opts.parallel_compile { opts.jobs } else { 1 };

    // The streaming compile+link: each unit folds into the program the
    // moment it (and every earlier unit) is compiled, then drops — units
    // are never collected, so peak memory is the program under construction
    // plus the pool's reorder window. Folding overlaps compilation, so
    // `compile_time` covers both and `link_time` covers assembling the
    // program object and opening it. On the stored-program route nothing
    // folds and `link_time` is the stored program's admission.
    let mut sp = obs.span("pipeline", "pipeline.compile");
    sp.set("files", files.len());
    // With a cache attached every file is keyed by its manifest before any
    // is built.
    let keying: Option<Keying> =
        (hooks.compile_cache).map(|cache| held_manifests(fs, files, options_fp, cache, pool_jobs));
    // With every manifest holding, the run's inputs are known already.
    let keyed: Option<Vec<u64>> = keying.as_ref().and_then(|k| {
        (files.iter().zip(&k.manifests))
            .map(|(f, m)| Some(m.as_ref()?.closure.key(f, options_fp)))
            .collect()
    });
    let keyed_prov = (keyed.as_ref()).map(|keys| provenance(files, keys, options_fp, opts.solver));
    let keyed_hook = hooks.snapshots.zip(keyed_prov.as_ref());
    std::thread::scope(|scope| {
        // The graph saved for the keyed inputs loads beside the program's
        // read and admission; the solve step takes it if the run's inputs
        // are still those.
        let graph = keyed_hook.map(|(hook, prov)| scope.spawn(move || hook.load(prov)));
        let stored = keyed_hook.and_then(|(hook, prov)| open_stored_program(hook, prov));
        // Load or link: an admitted program is what a fold of the keyed
        // objects links, so it answers whatever the cache holds; otherwise
        // every unit folds. A stored program leaves the linker empty.
        let mut linker = StreamLinker::new("a.out");
        let units = match (keying, hooks.compile_cache) {
            (Some(k), Some(cache)) if stored.is_some() => {
                let keys = keyed.expect("a stored program was keyed");
                // Recency and accounting for the objects behind the answer.
                for &key in &keys {
                    cache.touch(key);
                }
                k.into_units(keys)
            }
            (keying, cache) => {
                // Each unit takes its own file's manifest, once.
                let held: Vec<Mutex<Option<Manifest>>> = keying
                    .map_or_else(|| vec![None; files.len()], |k| k.manifests)
                    .into_iter()
                    .map(Mutex::new)
                    .collect();
                build_units(files, pool_jobs, opts.strict, &mut linker, |i, f| {
                    let m = held[i]
                        .lock()
                        .expect("only a take runs under a slot's lock")
                        .take();
                    compile_one_keyed(fs, f, &opts.pp, &opts.lower, options_fp, cache, m)
                })?
            }
        };
        let Units {
            stats,
            keys,
            durs,
            cache_hits: compile_cache_hits,
            direct_hits: compile_cache_direct_hits,
            mut failed,
            objects_in,
            jobs,
        } = units;
        // Workers finish out of order; the ledger reads in input order.
        failed.sort_by_key(|&(i, _)| i);
        let quarantined: Vec<Quarantined> = failed
            .into_iter()
            .map(|(i, reason)| Quarantined::note(files[i], reason))
            .collect();
        let partial = !quarantined.is_empty();
        let slowest_files = {
            let mut ranked: Vec<(String, Duration)> = files
                .iter()
                .zip(&durs)
                .map(|(f, &d)| ((*f).to_string(), d))
                .collect();
            ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            ranked.truncate(SLOWEST_FILES_CAP);
            ranked
        };
        let compile_cache_misses = files.len() - compile_cache_hits;
        sp.set("cache_hits", compile_cache_hits);
        sp.set("cache_direct_hits", compile_cache_direct_hits);
        sp.set("jobs", jobs);
        let program_loaded = stored.is_some();
        // The stored program's admission ran inside the compile span; the
        // report keeps the two phases apart.
        let (linked, peak_buffered_units, compile_time, link_time) = match stored {
            Some((db, admit_time)) => {
                let linked = Linked::of_stored(db, files.len(), objects_in, admit_time);
                let compile_time = sp.finish().saturating_sub(admit_time);
                (linked, 1, compile_time, admit_time)
            }
            None => {
                let compile_time = sp.finish();
                let mut sp = obs.span("pipeline", "pipeline.link");
                let peak = linker.peak_buffered();
                let linked = open_linked(linker.finish(), partial && opts.unknown_summaries)?;
                sp.set("object_bytes", linked.db.file_size());
                (linked, peak, compile_time, sp.finish())
            }
        };
        let Linked {
            db,
            link_stats,
            link_times,
            open_time,
            program_variables,
            assign_counts,
            unknown_summaries,
        } = linked;
        let object_size = db.file_size();

        // Waiting on the graph loaded beside the admission is part of the
        // solve phase, as loading it there was.
        let sp = obs.span("pipeline", "pipeline.solve");
        // Partial runs bypass the snapshot store in both directions: a
        // quarantined file keys as 0 in the provenance, so persisting (or
        // serving) a partial graph under it would alias distinct hostile
        // inputs to one snapshot.
        let snapshot_hook = if partial { None } else { hooks.snapshots };
        let prov = provenance(files, &keys, options_fp, opts.solver);
        let loaded = graph
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .filter(|_| snapshot_hook.is_some() && keyed_prov.as_ref() == Some(&prov));
        // Only a run keyed by manifests can open a stored program, so
        // without a compile cache there is no next run to save it for.
        let program_hook =
            snapshot_hook.filter(|_| !program_loaded && hooks.compile_cache.is_some());
        let (sealed, snapshot_loaded) = std::thread::scope(|scope| {
            // The program's durable write overlaps the solve; both only read
            // `db`.
            if let Some(hook) = program_hook {
                scope.spawn(|| hook.save_program(&prov, db.bytes()));
            }
            match loaded {
                Some(loaded) => solve_unless_loaded(&db, snapshot_hook, &prov, loaded),
                None => load_or_solve(&db, snapshot_hook, &prov),
            }
        });
        let points_to = sealed.extract_by_kind(db.ids().map(|o| db.kind(o)));
        let solve_stats = sealed.stats();
        let solve_time = sp.finish();

        let report = Report {
            files: files.len(),
            source_bytes: stats.iter().map(|s| s.source_bytes).sum(),
            preprocessed_lines: stats.iter().map(|s| s.preprocessed_lines).sum(),
            program_variables,
            assign_counts,
            object_size,
            link_stats,
            load_stats: db.load_stats(),
            solve_stats,
            pointer_variables: points_to.pointer_variables(),
            relations: points_to.relations(),
            compile_time,
            link_time,
            solve_time,
            link_times,
            open_time,
            compile_cache_hits,
            compile_cache_misses,
            compile_cache_direct_hits,
            snapshot_loaded,
            program_loaded,
            jobs,
            peak_buffered_units: peak_buffered_units.max(1),
            peak_rss_bytes: cla_obs::peak_rss_bytes(),
            slowest_files,
            quarantined,
            unknown_summaries,
        };
        Ok(Analysis {
            points_to,
            database: db,
            report,
        })
    })
}

/// The provenance of a batch run over `files`, keyed `keys`.
fn provenance(files: &[&str], keys: &[u64], options_fp: u64, solver: SolveOptions) -> Provenance {
    Provenance {
        inputs: (files.iter().zip(keys))
            .map(|(f, &k)| ((*f).to_string(), k))
            .collect(),
        options_fp,
        solver,
    }
}

/// What the keying pass of [`analyze_with`] found.
struct Keying {
    /// Per file, its [`Manifest`] where it holds (see [`held_manifest`]).
    manifests: Vec<Option<Manifest>>,
    /// How long keying each file took.
    durs: Vec<Duration>,
    /// Threads the keying pool used.
    jobs: usize,
}

impl Keying {
    /// What a unit pass would measure, read off the manifests alone: every
    /// file a direct hit under `keys`, as the manifests name them.
    fn into_units(self, keys: Vec<u64>) -> Units {
        let manifests: Vec<Manifest> = (self.manifests.into_iter())
            .map(|m| m.expect("every manifest held"))
            .collect();
        let files = manifests.len();
        cla_obs::global()
            .counter("cla_snap_cache_direct_hits_total")
            .add(files as u64);
        Units {
            stats: manifests.iter().map(|m| m.stats).collect(),
            keys,
            durs: self.durs,
            cache_hits: files,
            direct_hits: files,
            failed: Vec::new(),
            objects_in: manifests.iter().map(|m| m.objects).sum(),
            jobs: self.jobs,
        }
    }
}

/// Keys every file by its manifest on the pool, before anything is built.
/// A panic while checking one counts as its manifest not holding.
fn held_manifests(
    fs: &dyn FileProvider,
    files: &[&str],
    options_fp: u64,
    cache: &dyn CompileCache,
    jobs: usize,
) -> Keying {
    let mut keying = Keying {
        manifests: vec![None; files.len()],
        durs: vec![Duration::ZERO; files.len()],
        jobs: 0,
    };
    // A lenient pool returns no error, and this sink buffers nothing, so
    // no worker need wait on the order of delivery.
    keying.jobs = compile_all(
        files,
        jobs,
        false,
        |f| Ok(held_manifest(fs, f, options_fp, cache)),
        |i, dur, r| {
            keying.manifests[i] = r.unwrap_or(None);
            keying.durs[i] = dur;
            files.len()
        },
    )
    .expect("a lenient pool fails no run");
    keying
}

/// The program a previous run linked from `prov`'s inputs, admitted as any
/// `.clao` read from disk ([`Database::admit`]), and how long that took. A
/// missing entry or one that fails admission is a counted miss.
fn open_stored_program(hook: &dyn SnapshotHook, prov: &Provenance) -> Option<(Database, Duration)> {
    let obs = cla_obs::global();
    let mut sp = obs.span("pipeline", "pipeline.link");
    let db = hook
        .load_program(prov)
        .and_then(|bytes| Database::admit(bytes).ok());
    sp.set("object_bytes", db.as_ref().map_or(0, Database::file_size));
    let admit_time = sp.finish();
    match db {
        Some(db) => {
            obs.counter("cla_snap_program_loads_total").inc();
            Some((db, admit_time))
        }
        None => {
            obs.counter("cla_snap_program_mismatch_total").inc();
            None
        }
    }
}

/// What the unit pass of [`analyze_with`] measured.
struct Units {
    stats: Vec<CompileStats>,
    keys: Vec<u64>,
    durs: Vec<Duration>,
    cache_hits: usize,
    direct_hits: usize,
    failed: Vec<(usize, QuarantineReason)>,
    /// Objects declared by the units, before any link merges them.
    objects_in: usize,
    jobs: usize,
}

/// Runs `one` over every file on the pool and folds each unit into
/// `linker`.
fn build_units(
    files: &[&str],
    jobs: usize,
    strict: bool,
    linker: &mut StreamLinker,
    one: impl Fn(usize, &str) -> Result<CompiledFile, CError> + Sync,
) -> Result<Units, CError> {
    let mut units = Units {
        stats: vec![CompileStats::default(); files.len()],
        keys: vec![0; files.len()],
        durs: vec![Duration::ZERO; files.len()],
        cache_hits: 0,
        direct_hits: 0,
        failed: Vec::new(),
        objects_in: 0,
        jobs: 0,
    };
    units.jobs = compile_indexed(files, jobs, strict, one, |i, dur, compiled| {
        units.durs[i] = dur;
        let unit = match compiled {
            Ok(c) => {
                units.stats[i] = c.stats;
                units.keys[i] = c.key;
                units.cache_hits += usize::from(c.cache_hit);
                units.direct_hits += usize::from(c.direct_hit);
                c.object
            }
            // An empty unit keeps the linker's index sequence intact; it
            // contributes no objects and no assignments.
            Err(reason) => {
                units.failed.push((i, reason));
                UnitObject::empty(files[i])
            }
        };
        units.objects_in += unit.object_count();
        linker.push(i, unit);
        linker.folded()
    })?;
    Ok(units)
}

/// One compiled input: the unit's object, its measurements and what it was
/// built from.
pub struct CompiledFile {
    /// The unit as the link phase takes it: encoded, and intact.
    pub object: UnitObject,
    pub stats: CompileStats,
    /// Every source read for this file (see [`Closure`]).
    pub closure: Closure,
    /// [`Closure::key`] of `closure`: the compile-cache key and this file's
    /// entry in a batch [`Provenance`].
    pub key: u64,
    pub cache_hit: bool,
    /// The hit was keyed by the file's manifest: nothing was preprocessed.
    pub direct_hit: bool,
}

/// The per-file compile of every build route (batch [`analyze_with`] and
/// the serve sessions' load and reload). `held` is the file's [`Manifest`]
/// if the caller found that it holds ([`analyze_with`] keys every file
/// before building any): it names the key without a preprocess (direct
/// mode). Otherwise, or when the object it names is gone, the file is
/// preprocessed, which yields its [`Closure`] and key, and its manifest is
/// (re)written under a key it did not name. Either way the stored object
/// under the key is reused on a hit, and the preprocessed unit is parsed,
/// lowered and encoded (the result stored) on a miss. A hit is handed over
/// undecoded, after [`UnitObject::verify`] has run every integrity check
/// of the format over it; an entry that fails one is
/// [rejected](CompileCache::reject) and treated as a miss.
///
/// # Errors
///
/// Propagates frontend errors; a missing source file is one of them.
pub fn compile_one_keyed(
    fs: &dyn FileProvider,
    f: &str,
    pp: &PpOptions,
    lower: &LowerOptions,
    options_fp: u64,
    cache: Option<&dyn CompileCache>,
    held: Option<Manifest>,
) -> Result<CompiledFile, CError> {
    let mut held_key = None;
    if let Some(Manifest { closure, stats, .. }) = held {
        let key = closure.key(f, options_fp);
        if let Some(object) = cache.and_then(|c| load_verified(c, key)) {
            cla_obs::global()
                .counter("cla_snap_cache_direct_hits_total")
                .inc();
            return Ok(CompiledFile {
                object,
                stats,
                closure,
                key,
                cache_hit: true,
                direct_hit: true,
            });
        }
        held_key = Some(key);
    }
    if cache.is_some() {
        cla_obs::global()
            .counter("cla_snap_cache_direct_misses_total")
            .inc();
    }
    let pre = cla_cfront::preprocess_file(fs, f, pp)?;
    let closure = Closure::of(&pre);
    let key = closure.key(f, options_fp);
    // A held manifest that named this same key stands as it is, and its
    // object is already known to be gone: asking again would count a
    // second miss. One that named another key (the source changed since it
    // was keyed) is replaced.
    let unnamed = cache.filter(|_| held_key != Some(key));
    let hit = unnamed.and_then(|c| load_verified(c, key));
    let cache_hit = hit.is_some();
    let (object, stats) = match hit {
        // The keying preprocess saw the same bytes the original compile
        // did, so the hit's stats match a fresh compile.
        Some(object) => (object, CompileStats::of(&pre.stats)),
        None => {
            let (unit, stats) = compile_preprocessed(pre, f, &pp.limits, lower)?;
            let object = UnitObject::encode(&unit);
            if let Some(cache) = cache {
                cache.store(key, object.bytes());
            }
            (object, stats)
        }
    };
    if let Some(cache) = unnamed {
        let manifest = Manifest {
            file: f.to_owned(),
            options_fp,
            closure: closure.clone(),
            stats,
            objects: object.object_count(),
        };
        cache.store_manifest(manifest_key(f, options_fp), &manifest.encode());
    }
    Ok(CompiledFile {
        object,
        stats,
        closure,
        key,
        cache_hit,
        direct_hit: false,
    })
}

/// The manifest of `f`, if one is stored and its closure still holds
/// against `fs` — timed as the `cache.direct` span, which says how much
/// source the check hashed. A damaged manifest is
/// [rejected](CompileCache::reject_manifest).
fn held_manifest(
    fs: &dyn FileProvider,
    f: &str,
    options_fp: u64,
    cache: &dyn CompileCache,
) -> Option<Manifest> {
    let mut sp = cla_obs::global().span("cache", "cache.direct");
    sp.set("file", f);
    let key = manifest_key(f, options_fp);
    let m = match Manifest::decode(cache.load_manifest(key)?) {
        Ok(m) => m,
        Err(_) => {
            cache.reject_manifest(key);
            return None;
        }
    };
    // Another file's manifest under a colliding key is simply not this
    // file's; the rewrite after the preprocess replaces it.
    if m.file != f || m.options_fp != options_fp {
        return None;
    }
    let mut probe = SourceProbe::new(fs);
    let holds = m.closure.holds(&mut probe);
    sp.set("sources_hashed", probe.sources);
    sp.set("bytes_hashed", probe.bytes);
    sp.set("holds", holds);
    holds.then_some(m)
}

/// The object stored under `key`, if any and intact; a damaged one is
/// [rejected](CompileCache::reject).
fn load_verified(cache: &dyn CompileCache, key: u64) -> Option<UnitObject> {
    match UnitObject::verify(cache.load(key)?) {
        Ok(object) => Some(object),
        Err(_) => {
            cache.reject(key);
            None
        }
    }
}

/// Renders a `catch_unwind` payload as text (the conventional `&str` /
/// `String` payloads; anything else gets a placeholder).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A freshly linked program, opened for demand loading.
pub struct Linked {
    pub db: Database,
    pub link_stats: LinkStats,
    pub link_times: LinkTimes,
    pub open_time: Duration,
    pub program_variables: usize,
    pub assign_counts: AssignCounts,
    /// Undefined globals given unknown summaries (0 unless asked for).
    pub unknown_summaries: usize,
}

impl Linked {
    /// A stored program [admitted](Database::admit) in place of a link, with
    /// the figures the fold that built it reported, read off its records:
    /// `units` units declaring `objects_in` objects merged into its objects,
    /// and no unknown summary (a partial run never stores its program).
    fn of_stored(db: Database, units: usize, objects_in: usize, open_time: Duration) -> Linked {
        let assign_counts = db.assign_counts();
        let objects_out = db.object_count();
        Linked {
            link_stats: LinkStats {
                units,
                objects_in,
                objects_out,
                symbols_merged: objects_in.saturating_sub(objects_out),
                assigns: assign_counts.total(),
            },
            link_times: LinkTimes::default(),
            open_time,
            program_variables: (db.ids())
                .filter(|&o| db.kind(o).is_program_object())
                .count(),
            assign_counts,
            unknown_summaries: 0,
            db,
        }
    }
}

/// The one tail of every build: the linker every unit object has been
/// folded into (`ObjectLinker` or `StreamLinker::finish`) lays out the
/// program object — with its unknown summaries, if asked for — and the
/// `UnitObject` that comes back, written and checksummed in this process,
/// is opened as the [`Database`] the solver reads without being hashed or
/// range-checked again ([`Database::from_object`]).
///
/// # Errors
///
/// A database error if the freshly assembled object fails to open (a
/// linker bug — a typed error all the same, not a panic).
pub fn open_linked(linker: ObjectLinker, summarize_unknown: bool) -> Result<Linked, DbError> {
    let linked = linker.finish(summarize_unknown);
    let t = std::time::Instant::now();
    let db = Database::from_object(linked.object)?;
    Ok(Linked {
        db,
        link_stats: linked.stats,
        link_times: linked.times,
        open_time: t.elapsed(),
        program_variables: linked.program_variables,
        assign_counts: linked.assign_counts,
        unknown_summaries: linked.unknown_summaries,
    })
}

/// The worker count a `jobs` setting asks for: `0` means one per core this
/// process may run on. The compile pool and the solver's sweep both size
/// themselves here; answers never depend on it.
pub(crate) fn resolve_jobs(jobs: usize) -> usize {
    match jobs {
        0 => std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get),
        n => n,
    }
}

/// The one compile pool: runs `one` over every file on up to `jobs`
/// threads (0 = one per CPU, never more than there are files) and hands
/// each result to `sink` on the calling thread, tagged with its input index
/// and how long `one` took. Returns the thread count used.
///
/// * Every `one` runs under `catch_unwind`: a panic in the frontend is a
///   bug in *our* code, but it is triggered by *their* bytes, and one
///   hostile file must not take down the run or a worker. A typed error or
///   a panic reaches the sink as a [`QuarantineReason`].
/// * In `strict` mode a failure never reaches the sink: the pool stops
///   claiming files past it, finishes the ones before it, and returns the
///   failure of the *lowest input index* as a typed `CError` — the same
///   error at any `jobs`.
/// * Results arrive in completion order. `sink` returns how many inputs
///   (the in-order prefix) it has consumed for good; workers block rather
///   than start a file more than `2 × jobs` past that, which bounds what a
///   sink that must consume in order (a [`StreamLinker`]) ever buffers.
/// * With one job the same claim → compile → deliver body runs inline on
///   the calling thread; no thread is spawned.
///
/// # Errors
///
/// Strict mode only: the lowest-index failure.
pub fn compile_all<T: Send>(
    files: &[&str],
    jobs: usize,
    strict: bool,
    one: impl Fn(&str) -> Result<T, CError> + Sync,
    sink: impl FnMut(usize, Duration, Result<T, QuarantineReason>) -> usize,
) -> Result<usize, CError> {
    compile_indexed(files, jobs, strict, |_, f| one(f), sink)
}

/// [`compile_all`] with `one` given each file's input index too.
fn compile_indexed<T: Send>(
    files: &[&str],
    jobs: usize,
    strict: bool,
    one: impl Fn(usize, &str) -> Result<T, CError> + Sync,
    mut sink: impl FnMut(usize, Duration, Result<T, QuarantineReason>) -> usize,
) -> Result<usize, CError> {
    /// Shared between the workers and the delivering thread.
    struct Progress {
        /// What `sink` last returned.
        consumed: usize,
        /// Files past this index are not started (strict failure, or the
        /// delivering thread is gone).
        stop: usize,
    }
    /// Runs `F` however the scope it lives in is left.
    struct OnDrop<F: Fn()>(F);
    impl<F: Fn()> Drop for OnDrop<F> {
        fn drop(&mut self) {
            (self.0)();
        }
    }
    const POISON: &str = "only plain assignments run under the pool's progress lock";

    let jobs = resolve_jobs(jobs).clamp(1, files.len().max(1));
    let window = jobs * 2;
    let next = AtomicUsize::new(0);
    let progress = Mutex::new(Progress {
        consumed: 0,
        stop: usize::MAX,
    });
    let unblocked = Condvar::new();
    let stop_past = |i: usize| {
        let mut p = progress.lock().expect(POISON);
        p.stop = p.stop.min(i);
        drop(p);
        unblocked.notify_all();
    };
    // Claim → compile → deliver, until the files (or the reasons to go on)
    // run out.
    type Delivery<T> = (usize, Duration, Result<T, QuarantineReason>);
    let work = |deliver: &mut dyn FnMut(Delivery<T>)| loop {
        let i = next.fetch_add(1, Relaxed);
        if i >= files.len() {
            break;
        }
        {
            let mut p = progress.lock().expect(POISON);
            while i <= p.stop && i >= p.consumed + window {
                p = unblocked.wait(p).expect(POISON);
            }
            if i > p.stop {
                break;
            }
        }
        let t = std::time::Instant::now();
        let r = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| one(i, files[i]))) {
            Ok(Ok(c)) => Ok(c),
            Ok(Err(e)) => Err(QuarantineReason::Error(e)),
            Err(payload) => Err(QuarantineReason::Panic(panic_message(payload))),
        };
        // Indices are claimed in order, so everything before `i` is already
        // running or done: stopping *past* `i` still compiles all of them,
        // and the lowest failing index is found whatever the timing.
        if strict && r.is_err() {
            stop_past(i);
        }
        deliver((i, t.elapsed(), r));
    };
    let mut failure: Option<(usize, QuarantineReason)> = None;
    let mut accept = |(i, dur, r): Delivery<T>| match r {
        Err(reason) if strict => {
            if failure.as_ref().is_none_or(|(first, _)| i < *first) {
                failure = Some((i, reason));
            }
        }
        r => {
            let consumed = sink(i, dur, r);
            progress.lock().expect(POISON).consumed = consumed;
            unblocked.notify_all();
        }
    };
    if jobs == 1 {
        work(&mut accept);
    } else {
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                let tx = tx.clone();
                // A send only fails once the receiver below is gone, and
                // then `stop` is already 0.
                scope.spawn(|| work(&mut move |d| drop(tx.send(d))));
            }
            drop(tx);
            // Should `sink` panic, the scope still joins the workers: wake
            // the ones waiting on it into stopping.
            let _wake = OnDrop(|| stop_past(0));
            rx.into_iter().for_each(&mut accept);
        });
    }
    match failure {
        // Panics become a `CError` instead of re-raising, so even fail-fast
        // callers get a value, never a poisoned thread pool.
        Some((_, QuarantineReason::Error(e))) => Err(e),
        Some((_, QuarantineReason::Panic(msg))) => Err(CError::parse(
            format!("internal frontend panic: {msg}"),
            cla_cfront::Loc::BUILTIN,
        )),
        None => Ok(jobs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cla_cfront::MemoryFs;

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
        let _ = compile_all(&files, 4, false, slow_first, |i, _, _| {
            assert!(i != 0, "sink gave up");
            0
        });
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
