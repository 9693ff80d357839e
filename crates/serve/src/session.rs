//! The in-process query session: a solved program sealed into an immutable
//! snapshot, an epoch-tagged result cache in front of it, and incremental
//! reload.
//!
//! A [`Session`] is the server's engine and is directly usable as a library:
//!
//! * the linked [`Database`] and the solved, sealed graph
//!   ([`cla_core::SealedGraph`]) are loaded once and shared; queries run
//!   concurrently under a read lock against plain immutable data — no
//!   query ever takes a solver mutex, so N clients scale to N cores;
//! * repeated `points-to` and `depend` queries are answered from a bounded
//!   LRU of finished results without touching the snapshot at all (`alias`
//!   goes straight to the sealed sets: its pairs rarely repeat, and two
//!   set lookups cost about what a cache probe does);
//! * the first `depend` of an epoch builds that epoch's
//!   [`cla_depend::FlowIndex`]; every later one walks it in time
//!   proportional to its answer;
//! * [`Session::reload`] recompiles only the sources whose inputs changed
//!   (the file or any header it read) through the pipeline's compile pool,
//!   relinks, solves and seals a new snapshot *off to the side*, then
//!   swaps it in under the write lock, bumps the session epoch, and
//!   discards every cached result. In-flight queries finish against the
//!   old snapshot; every answer carries the epoch it was computed at.

use crate::json::{obj, Value};
use cla_cfront::{CError, FileProvider, PpOptions};
use cla_cladb::{xxh64, Database, DbError, ObjectLinker, UnitObject};
use cla_core::pipeline::{
    compile_all, compile_one_keyed, load_or_solve, open_linked, options_fingerprint, Closure,
    Provenance, Quarantined, SnapshotHook, SourceProbe,
};
use cla_core::{SealedGraph, SolveOptions, SolveStats};
use cla_depend::{DependOptions, FlowIndex};
use cla_ir::{LowerOptions, ObjId};
use cla_obs::{nearest_rank, Counter, Gauge, Histogram, LATENCY_BUCKETS_US};
use cla_snap::SnapshotStore;
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

/// How many finished query results the session retains.
const RESULT_CACHE_CAP: usize = 1024;

/// How many recent latency samples feed the p50/p90/p99 figures.
const LATENCY_WINDOW: usize = 4096;

/// How many slow queries the log retains (oldest dropped first).
const SLOW_LOG_CAP: usize = 128;

/// Slow-query threshold: queries at or above this latency are logged.
pub const DEFAULT_SLOW_THRESHOLD_US: u64 = 10_000;

/// How many per-span allocation rows the stats wire form carries (the
/// heaviest spans by cumulative bytes; the full table stays in-process).
const ALLOC_SPANS_IN_STATS: usize = 8;

/// Errors a query or reload can produce.
#[derive(Debug)]
pub enum SessionError {
    /// No object in the program has this name.
    UnknownVariable(String),
    /// `reload` on a session with nothing to re-read: one opened in memory
    /// by [`Session::from_database`] rather than from a [`SessionSpec`].
    NoSources,
    /// `reload` needs to re-read source files but no file provider was
    /// passed.
    NoProvider,
    /// Compilation of a source failed (a source that vanished included).
    Compile(CError),
    /// The object file failed to read, open, or verify.
    Db(DbError),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::UnknownVariable(n) => write!(f, "unknown variable: {n}"),
            SessionError::NoSources => {
                write!(
                    f,
                    "session was opened from a database; reload needs sources"
                )
            }
            SessionError::NoProvider => write!(f, "reload is not available (no file provider)"),
            SessionError::Compile(e) => write!(f, "recompile failed: {e}"),
            SessionError::Db(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// Where a session's program comes from.
pub enum SessionSource {
    /// Compile and link C sources through `fs` (reloadable; a server passes
    /// the provider back to `reload` requests).
    Files {
        fs: Arc<dyn FileProvider + Send + Sync>,
        files: Vec<String>,
        pp: PpOptions,
        lower: LowerOptions,
        /// Quarantine-and-continue mode: hostile sources become ledger
        /// entries and `partial: true` answers, not a failed build.
        lenient: bool,
    },
    /// An already linked `.clao` object on disk (reload re-reads it).
    Object { path: PathBuf },
}

/// Everything needed to (re)build one session with [`Session::open`]. A
/// hub keeps it for the whole tenant lifetime: eviction drops the session,
/// never the spec, so a later request can rebuild it without the client's
/// help.
pub struct SessionSpec {
    pub source: SessionSource,
    pub solve: SolveOptions,
    /// `.clasnap` directory: a matching snapshot skips the solve, and every
    /// build and reload refreshes it. Without one every build solves cold.
    pub snapshot_dir: Option<PathBuf>,
    /// Compile pool cap for builds (0 = one thread per CPU, 1 = serial).
    pub jobs: usize,
}

impl SessionSpec {
    /// The provider `reload` re-reads sources through (`None` for an
    /// object, which reloads without one).
    pub fn fs(&self) -> Option<&Arc<dyn FileProvider + Send + Sync>> {
        match &self.source {
            SessionSource::Files { fs, .. } => Some(fs),
            SessionSource::Object { .. } => None,
        }
    }
}

/// The serving condition reported by the `health` wire command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// Serving from an up-to-date snapshot.
    Ok,
    /// Serving, but one or more source units are quarantined (a lenient
    /// session compiled past them): answers describe the surviving subset.
    Partial,
    /// A reload failed; queries are answered from the last good snapshot
    /// while retries back off.
    Degraded,
    /// A reload is swapping state right now.
    Loading,
}

impl Health {
    /// The wire string (`ok | partial | degraded | loading`).
    pub fn as_str(self) -> &'static str {
        match self {
            Health::Ok => "ok",
            Health::Partial => "partial",
            Health::Degraded => "degraded",
            Health::Loading => "loading",
        }
    }
}

/// One points-to target.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Target {
    pub id: u32,
    pub name: String,
}

/// Answer to a points-to query.
#[derive(Debug, Clone)]
pub struct PointsToAnswer {
    pub var: String,
    /// Number of program objects matching the queried name (statics in
    /// different files can share one).
    pub resolved: usize,
    /// Union of the matched objects' points-to sets, sorted by id.
    pub targets: Arc<Vec<Target>>,
    pub cached: bool,
    pub micros: u64,
    /// The session epoch whose snapshot answered this query.
    pub epoch: u64,
    /// True when the answering snapshot has quarantined units: the answer
    /// covers the surviving subset only (DESIGN.md §14).
    pub partial: bool,
}

/// Answer to an alias query.
#[derive(Debug, Clone)]
pub struct AliasAnswer {
    pub a: String,
    pub b: String,
    pub alias: bool,
    pub cached: bool,
    pub micros: u64,
    /// The session epoch whose snapshot answered this query.
    pub epoch: u64,
    /// True when the answering snapshot has quarantined units.
    pub partial: bool,
}

/// One forward dependent of a queried target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DependentLine {
    pub name: String,
    pub weak_links: u32,
    pub length: u32,
}

/// Answer to a forward-dependence query.
#[derive(Debug, Clone)]
pub struct DependAnswer {
    pub target: String,
    pub dependents: Arc<Vec<DependentLine>>,
    pub cached: bool,
    pub micros: u64,
    /// The session epoch whose snapshot answered this query.
    pub epoch: u64,
    /// True when the answering snapshot has quarantined units.
    pub partial: bool,
}

/// Outcome of a reload.
#[derive(Debug, Clone)]
pub struct ReloadReport {
    /// Sources whose inputs changed and were recompiled.
    pub recompiled: Vec<String>,
    /// Cached query results discarded by the swap.
    pub invalidated_results: usize,
    /// The session epoch after the reload (unchanged if nothing changed).
    pub epoch: u64,
    /// Whether the database was relinked and the solver re-run.
    pub relinked: bool,
    /// Files still quarantined after this reload (lenient sessions retry
    /// every quarantined file on each reload; survivors stay listed).
    pub quarantined: Vec<String>,
}

/// One entry of the slow-query log.
#[derive(Debug, Clone)]
pub struct SlowQuery {
    /// Which command was slow (`points-to`, `alias`, `depend`).
    pub cmd: &'static str,
    /// The query argument(s), for reproducing it.
    pub detail: String,
    /// Observed latency in microseconds.
    pub micros: u64,
    /// Session epoch the query ran at.
    pub epoch: u64,
}

/// A point-in-time view of the session's instrumentation.
#[derive(Debug, Clone)]
pub struct SessionStats {
    /// Queries answered (points-to + alias + depend), including cache hits.
    pub queries: u64,
    /// Per-command request counts (each command counted separately).
    pub cmd_points_to: u64,
    pub cmd_alias: u64,
    pub cmd_depend: u64,
    /// Stats snapshots taken (this call included).
    pub cmd_stats: u64,
    /// Reload requests attempted, whether or not anything changed.
    pub cmd_reload: u64,
    /// `points-to` and `depend` queries answered from the session's result
    /// cache, and those that had to be computed. `alias` never consults the
    /// cache and counts as neither.
    pub result_cache_hits: u64,
    pub result_cache_misses: u64,
    /// Edge records and heap bytes of this epoch's dependence flow index;
    /// both 0 until the epoch's first `depend` has built it.
    pub flow_index_edges: u64,
    pub flow_index_bytes: u64,
    /// Reloads that actually swapped the database.
    pub reloads: u64,
    /// Reload attempts that failed (the state was left untouched).
    pub reload_failures: u64,
    /// Whether the session is currently serving from a last-good snapshot
    /// after a failed reload.
    pub degraded: bool,
    /// Whether the serving snapshot has quarantined units (lenient
    /// sessions): answers cover the surviving subset only.
    pub partial: bool,
    /// Units in the current quarantine ledger.
    pub quarantined: u64,
    /// Process-wide `cla_front_quarantined_total` counter: units
    /// quarantined by any lenient build or `analyze` in this process.
    pub front_quarantined_total: u64,
    /// Process-wide `cla_front_budget_exceeded_total` counter: quarantines
    /// caused by a [`cla_cfront::FrontendLimits`] budget.
    pub front_budget_exceeded_total: u64,
    /// The error that put the session into degraded mode, if any.
    pub last_error: Option<String>,
    /// Current session epoch (bumped by every swap).
    pub epoch: u64,
    /// Median query latency over the recent window, in microseconds
    /// (nearest-rank).
    pub p50_micros: u64,
    /// 90th-percentile query latency over the recent window.
    pub p90_micros: u64,
    /// 99th-percentile query latency over the recent window.
    pub p99_micros: u64,
    /// Queries at or above the slow threshold since the session started.
    pub slow_queries: u64,
    /// Latency samples currently in the window (≤ [`latency_capacity`](Self::latency_capacity)).
    pub latency_samples: usize,
    /// Fixed capacity of the latency window; the buffer never grows past
    /// this, so a long-running server's memory stays flat.
    pub latency_capacity: usize,
    /// Counters of the sealed solver snapshot, including complex
    /// assignments in core, graph nodes, and `getLvals` cache hits (frozen
    /// at seal time).
    pub solver: SolveStats,
    /// Whether the currently served graph was loaded from a persisted
    /// snapshot instead of being solved (cold starts and reloads both).
    pub snapshot_loaded: bool,
    /// Snapshot loads / saves / provenance-or-decode mismatches since this
    /// session attached its snapshot store (all 0 without one).
    pub snapshot_loads: u64,
    pub snapshot_saves: u64,
    pub snapshot_mismatches: u64,
    /// Human-readable provenance of the snapshot on disk, if one exists
    /// (`None` when the session has no snapshot store).
    pub snapshot_provenance: Option<String>,
    /// Peak resident set size of this process in bytes (`VmHWM`; 0 where
    /// the platform doesn't expose it). Covers the whole process lifetime,
    /// so it bounds the compile-link-solve that built this session.
    pub peak_rss_bytes: u64,
    /// Per-span heap attribution from the counting allocator
    /// (`--features count-alloc`; `enabled: false` and all zeros without
    /// it).
    pub alloc: cla_prof::AllocSnapshot,
}

impl SessionStats {
    /// Result-cache hit rate in [0, 1]; 0 when nothing was asked yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.result_cache_hits + self.result_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.result_cache_hits as f64 / total as f64
        }
    }

    /// The stats line as a JSON object (the wire form).
    pub fn to_json(&self) -> Value {
        obj([
            ("queries", self.queries.into()),
            ("cmd_points_to", self.cmd_points_to.into()),
            ("cmd_alias", self.cmd_alias.into()),
            ("cmd_depend", self.cmd_depend.into()),
            ("cmd_stats", self.cmd_stats.into()),
            ("cmd_reload", self.cmd_reload.into()),
            ("result_cache_hits", self.result_cache_hits.into()),
            ("result_cache_misses", self.result_cache_misses.into()),
            (
                "hit_rate",
                ((self.hit_rate() * 1000.0).round() / 1000.0).into(),
            ),
            ("reloads", self.reloads.into()),
            ("reload_failures", self.reload_failures.into()),
            ("degraded", self.degraded.into()),
            ("partial", self.partial.into()),
            ("quarantined", self.quarantined.into()),
            (
                "front_quarantined_total",
                self.front_quarantined_total.into(),
            ),
            (
                "front_budget_exceeded_total",
                self.front_budget_exceeded_total.into(),
            ),
            (
                "last_error",
                match &self.last_error {
                    Some(e) => e.as_str().into(),
                    None => Value::Null,
                },
            ),
            ("epoch", self.epoch.into()),
            ("p50_us", self.p50_micros.into()),
            ("p90_us", self.p90_micros.into()),
            ("p99_us", self.p99_micros.into()),
            ("slow_queries", self.slow_queries.into()),
            ("lat_samples", self.latency_samples.into()),
            ("lat_capacity", self.latency_capacity.into()),
            ("solver_getlvals_calls", self.solver.getlvals_calls.into()),
            ("solver_cache_hits", self.solver.cache_hits.into()),
            ("complex_in_core", self.solver.complex_in_core.into()),
            ("graph_nodes", self.solver.nodes.into()),
            ("approx_bytes", self.solver.approx_bytes.into()),
            ("flow_index_edges", self.flow_index_edges.into()),
            ("flow_index_bytes", self.flow_index_bytes.into()),
            ("snapshot_loaded", self.snapshot_loaded.into()),
            ("snapshot_loads", self.snapshot_loads.into()),
            ("snapshot_saves", self.snapshot_saves.into()),
            ("snapshot_mismatches", self.snapshot_mismatches.into()),
            (
                "snapshot_provenance",
                match &self.snapshot_provenance {
                    Some(p) => p.as_str().into(),
                    None => Value::Null,
                },
            ),
            ("peak_rss_bytes", self.peak_rss_bytes.into()),
            ("alloc_enabled", self.alloc.enabled.into()),
            ("alloc_total_bytes", self.alloc.total_bytes.into()),
            ("alloc_total_allocs", self.alloc.total_allocs.into()),
            ("alloc_live_bytes", self.alloc.live_bytes.into()),
            ("alloc_peak_live_bytes", self.alloc.peak_live_bytes.into()),
            (
                "alloc_by_span",
                Value::Arr(
                    self.alloc
                        .by_span
                        .iter()
                        .take(ALLOC_SPANS_IN_STATS)
                        .map(|s| {
                            obj([
                                ("span", s.span.into()),
                                ("bytes", s.bytes.into()),
                                ("allocs", s.allocs.into()),
                                ("peak_live_bytes", s.peak_live_bytes.into()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum QueryKey {
    PointsTo(String),
    Depend {
        target: String,
        /// Joined by U+001F.
        non_targets: String,
    },
}

enum CachedAnswer {
    Pts {
        resolved: usize,
        targets: Arc<Vec<Target>>,
    },
    Depend(Arc<Vec<DependentLine>>),
}

struct CacheEntry {
    val: CachedAnswer,
    last_used: AtomicU64,
}

/// Everything derived from one linked program; swapped wholesale on reload.
///
/// The sealed snapshot is immutable and `Sync`: queries read it directly
/// under the session's read lock with no further locking, and the
/// dependence analysis traverses it in place (no materialized `PointsTo`).
struct Loaded {
    db: Database,
    sealed: Arc<SealedGraph>,
    /// The dependence flow index of `(db, sealed)`: built by the epoch's
    /// first `depend` (concurrent ones wait for that one build), dropped
    /// with the epoch, never persisted. A build failure — a damaged block
    /// — is as permanent as the bytes, so it is kept and handed to every
    /// later `depend` of the epoch.
    flow: OnceLock<Result<FlowIndex, DbError>>,
    results: RwLock<HashMap<QueryKey, CacheEntry>>,
    /// Units that failed to compile and were skipped (lenient sessions
    /// only; always empty for strict ones). Swapped with the state, so the
    /// ledger always describes the snapshot answering queries.
    quarantined: Vec<Quarantined>,
}

impl Loaded {
    fn flow_size(&self) -> Option<(usize, usize)> {
        let index = self.flow.get()?.as_ref().ok()?;
        Some((index.edges(), index.bytes()))
    }
}

/// A fixed-capacity, lock-free ring of recent latency samples.
///
/// `record` overwrites the oldest slot; the buffer never grows, so the
/// p50/p99 figures always describe the most recent window and a server that
/// has answered 100 million queries holds exactly as many samples as one
/// that answered 4096.
struct LatencyRing {
    slots: Box<[AtomicU64]>,
    /// Total samples ever recorded; `% slots.len()` is the write cursor.
    written: AtomicU64,
}

impl LatencyRing {
    fn new(capacity: usize) -> LatencyRing {
        LatencyRing {
            slots: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            written: AtomicU64::new(0),
        }
    }

    fn record(&self, micros: u64) {
        let at = self.written.fetch_add(1, Relaxed) as usize % self.slots.len();
        self.slots[at].store(micros, Relaxed);
    }

    /// The currently populated window (unordered).
    fn snapshot(&self) -> Vec<u64> {
        let filled = (self.written.load(Relaxed) as usize).min(self.slots.len());
        self.slots[..filled]
            .iter()
            .map(|s| s.load(Relaxed))
            .collect()
    }

    fn capacity(&self) -> usize {
        self.slots.len()
    }
}

/// The program name every session links under (and tags its snapshot
/// provenance with).
const PROGRAM: &str = "a.out";

/// Compilation inputs retained for incremental reload.
struct Sources {
    files: Vec<String>,
    /// Parallel to `files`: each unit's encoded object with the closure it
    /// was built from, so a reload relinks the untouched units without
    /// re-encoding them. A file that has not compiled (yet, or at its last
    /// try) holds an empty unit's object — which keeps its slot in the link
    /// order — and an empty closure.
    table: Vec<(UnitObject, Closure)>,
    pp: PpOptions,
    lower: LowerOptions,
    /// Quarantine-and-continue: a failing unit is skipped (empty unit, a
    /// ledger entry) instead of failing the build or the reload.
    lenient: bool,
    /// Compile pool cap, for the first build and every reload.
    jobs: usize,
}

/// What [`Sources::recompile`] did.
struct Recompiled {
    /// Files that compiled, in input order.
    recompiled: Vec<String>,
    /// Files that did not (lenient sessions only), in input order.
    ledger: Vec<Quarantined>,
    /// False when the table links to the byte-identical program as before.
    changed: bool,
}

impl Sources {
    /// Inputs none of whose files has compiled yet.
    fn new(
        files: Vec<String>,
        pp: &PpOptions,
        lower: &LowerOptions,
        lenient: bool,
        jobs: usize,
    ) -> Sources {
        let table = (files.iter())
            .map(|f| (UnitObject::empty(f), Closure::default()))
            .collect();
        Sources {
            files,
            table,
            pp: pp.clone(),
            lower: lower.clone(),
            lenient,
            jobs,
        }
    }

    /// Brings the table up to date with `fs` through the pipeline's compile
    /// pool. A file is stale when its closure no longer holds — a source it
    /// read hashes differently, or an include candidate it found missing
    /// now exists (each distinct path is read once) — when it has no
    /// closure — it is quarantined, and the fault may have been
    /// environmental: a header restored, a deadline — or when `force`d.
    /// A strict session's first failure leaves the table untouched.
    fn recompile(
        &mut self,
        fs: &dyn FileProvider,
        force: bool,
    ) -> Result<Recompiled, SessionError> {
        let mut probe = SourceProbe::new(fs);
        let stale: Vec<usize> = (0..self.files.len())
            .filter(|&i| {
                let closure = &self.table[i].1;
                force || closure.sources.is_empty() || !closure.holds(&mut probe)
            })
            .collect();
        let names: Vec<&str> = stale.iter().map(|&i| self.files[i].as_str()).collect();
        let options_fp = options_fingerprint(&self.pp, &self.lower);
        let mut fresh = Vec::with_capacity(stale.len());
        compile_all(
            &names,
            self.jobs,
            !self.lenient,
            |f| compile_one_keyed(fs, f, &self.pp, &self.lower, options_fp, None),
            |k, _, compiled| {
                fresh.push((stale[k], compiled));
                fresh.len()
            },
        )
        .map_err(SessionError::Compile)?;
        fresh.sort_by_key(|&(i, _)| i);

        // A quarantined file that failed again is the one outcome that
        // leaves the linked program as it was.
        let changed = fresh
            .iter()
            .any(|(i, compiled)| compiled.is_ok() || !self.table[*i].1.sources.is_empty());
        let (mut recompiled, mut ledger) = (Vec::new(), Vec::new());
        for (i, compiled) in fresh {
            let file = &self.files[i];
            self.table[i] = match compiled {
                Ok(c) => {
                    recompiled.push(file.clone());
                    (c.object, c.closure)
                }
                Err(reason) => {
                    ledger.push(Quarantined::note(file.clone(), reason));
                    (UnitObject::empty(file), Closure::default())
                }
            };
        }
        Ok(Recompiled {
            recompiled,
            ledger,
            changed,
        })
    }

    /// Links the table in input order and loads the result: the state a
    /// session swaps in, and whether its graph came from the snapshot store.
    fn link(
        &self,
        ledger: Vec<Quarantined>,
        store: Option<&SnapshotStore>,
        solver: SolveOptions,
    ) -> Result<(Loaded, bool), SessionError> {
        let mut linker = ObjectLinker::new(PROGRAM);
        for (unit, _) in &self.table {
            linker.add(unit);
        }
        let db = open_linked(linker, false).map_err(SessionError::Db)?.db;
        let prov = object_provenance(PROGRAM, db.content_hash(), solver);
        let (mut loaded, from_snap) = load(db, store, &prov);
        loaded.quarantined = ledger;
        Ok((loaded, from_snap))
    }
}

/// What a `reload` re-reads, fixed at session construction.
enum ReloadInputs {
    /// No reload (opened straight from in-memory bytes).
    None,
    /// C sources: recompile changed files, relink, re-solve.
    /// Boxed: `Sources` dwarfs the other variants.
    Files(Box<Sources>),
    /// A linked `.clao` on disk: re-read, re-open, re-solve.
    Object { path: PathBuf, hash: u64 },
}

/// Book-keeping while the session serves from a last-good snapshot.
struct Degraded {
    /// The most recent reload error, verbatim.
    last_error: String,
    /// Consecutive failed reload attempts.
    failures: u32,
    /// When the first of the consecutive failures happened.
    since: Instant,
    /// Earliest time [`Session::maybe_recover`] will try again
    /// (exponential backoff, capped).
    next_retry: Instant,
}

/// A resident analysis session. All methods take `&self`; the session is
/// `Sync` and designed to be shared (`Arc<Session>`) across server workers.
/// The query path is lock-free for readers apart from the state `RwLock`
/// (held shared) and the result cache's own `RwLock`.
pub struct Session {
    state: RwLock<Loaded>,
    sources: Mutex<ReloadInputs>,
    solve_opts: SolveOptions,
    /// Degraded-mode book-keeping; `None` while healthy.
    degraded: Mutex<Option<Degraded>>,
    reload_in_progress: AtomicBool,
    backoff_base_ms: AtomicU64,
    backoff_cap_ms: AtomicU64,
    reload_failures: AtomicU64,
    ctr_reload_fail: Counter,
    ctr_degraded_seconds: Counter,
    epoch: AtomicU64,
    tick: AtomicU64,
    queries: AtomicU64,
    cmd_points_to: AtomicU64,
    cmd_alias: AtomicU64,
    cmd_depend: AtomicU64,
    cmd_stats: AtomicU64,
    cmd_reload: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    reloads: AtomicU64,
    latencies: LatencyRing,
    slow_count: AtomicU64,
    slow_log: Mutex<VecDeque<SlowQuery>>,
    /// Depth of the slow-query log, exported through the Prometheus
    /// exposition (`cla_serve_slow_log_depth`).
    gauge_slow_log_depth: Gauge,
    /// The sampling profiler while a wire `profile start` is live.
    profiler: Mutex<Option<cla_prof::Profiler>>,
    /// Per-command latency histograms, shared with the global metric
    /// registry (`cla_serve_latency_us{cmd=...}`); handles cached here so
    /// the query path never takes the registry lock.
    hist_points_to: Histogram,
    hist_alias: Histogram,
    hist_depend: Histogram,
    /// Snapshot persistence, when the session was opened with a snapshot
    /// directory: cold starts load from it, successful reloads save to it.
    snap_store: Option<SnapshotStore>,
    /// Whether the graph serving the current epoch came from the snapshot
    /// store rather than a solver run.
    snapshot_loaded: AtomicBool,
}

/// Which query command an operation was, for per-command accounting.
#[derive(Debug, Clone, Copy)]
enum Cmd {
    PointsTo,
    Alias,
    Depend,
}

impl Cmd {
    fn name(self) -> &'static str {
        match self {
            Cmd::PointsTo => "points-to",
            Cmd::Alias => "alias",
            Cmd::Depend => "depend",
        }
    }
}

/// Reads, opens, and fully verifies a `.clao` file; returns the database
/// plus its [`content_hash`](Database::content_hash), used for reload
/// change detection and snapshot provenance.
fn open_object_path(path: &Path) -> Result<(Database, u64), SessionError> {
    let bytes = std::fs::read(path)
        .map_err(|e| SessionError::Db(DbError::Io(format!("{}: {e}", path.display()))))?;
    let db = Database::open(bytes).map_err(SessionError::Db)?;
    // Verify every block now: the solver demand-loads blocks mid-solve and
    // treats the database as already validated, so corruption must be
    // caught here, where it can become a typed error instead of a panic.
    // Once every checksum holds, the root of their tree names the bytes.
    db.verify_all().map_err(SessionError::Db)?;
    let hash = db.content_hash();
    Ok((db, hash))
}

/// Provenance scheme for serve-side snapshots. The sealed graph is a pure
/// function of the linked object bytes and the solver options, so one
/// `(tag, object hash)` input — [`Database::content_hash`], the root of the
/// object's checksum tree — identifies it exactly: any source edit
/// that changes the linked program changes the hash and forces a re-solve,
/// while an edit with no semantic effect (whitespace, comments) keeps the
/// snapshot valid — and correct. The fixed `options_fp` namespaces these
/// provenances away from the pipeline's preprocessed-closure scheme.
pub fn object_provenance(tag: &str, object_hash: u64, solver: SolveOptions) -> Provenance {
    Provenance {
        inputs: vec![(tag.to_string(), object_hash)],
        options_fp: xxh64(b"cla-serve/object/v1", 0),
        solver,
    }
}

/// Opens the snapshot store for `dir` when a directory was requested.
/// An unopenable store is a hard error: the caller explicitly asked for
/// persistence, so silently serving without it would be a trap.
fn open_store(dir: Option<&Path>) -> Result<Option<SnapshotStore>, SessionError> {
    dir.map(|d| {
        SnapshotStore::open(d)
            .map_err(|e| SessionError::Db(DbError::Io(format!("{}: {e}", d.display()))))
    })
    .transpose()
}

/// Builds the resident state for `db` through the pipeline's one
/// load-or-solve route: with a snapshot store attached, a provenance match
/// skips the solve entirely and a miss persists the fresh graph. Returns
/// whether the graph came from the store.
fn load(db: Database, store: Option<&SnapshotStore>, prov: &Provenance) -> (Loaded, bool) {
    // Covers the solve (with its per-pass spans) and the seal, or the load.
    let _sp = cla_obs::global().span("serve", "serve.load");
    let (sealed, from_snap) = load_or_solve(&db, store.map(|s| s as &dyn SnapshotHook), prov);
    let loaded = Loaded {
        db,
        sealed: Arc::new(sealed),
        flow: OnceLock::new(),
        results: RwLock::new(HashMap::new()),
        quarantined: Vec::new(),
    };
    (loaded, from_snap)
}

impl Session {
    /// Builds the session `spec` describes: compiles and links its sources
    /// (quarantining the ones that fail when `lenient`) or reads, opens and
    /// verifies its linked `.clao`, then solves — or, when the spec's
    /// snapshot directory holds a snapshot whose provenance matches the
    /// linked program, skips the solve and starts warm. Either way the
    /// session can [`reload`](Session::reload) from the same source, and
    /// every successful reload refreshes the snapshot.
    ///
    /// Sources build through [`cla_core::pipeline`] — the pool, per-file
    /// compile and link tail of a batch `analyze` — so the linked database
    /// is byte-identical at any `jobs`, a strict failure is always the one
    /// of the lowest input index, and a frontend panic is a typed error. A
    /// lenient session keeps an empty unit in a failed file's slot, lists
    /// it in [`Session::quarantined`], answers `partial: true`, and retries
    /// it on every reload (DESIGN.md §14). An object is verified whole up
    /// front: a session must never discover corruption mid-query.
    pub fn open(spec: &SessionSpec) -> Result<Session, SessionError> {
        let store = open_store(spec.snapshot_dir.as_deref())?;
        match &spec.source {
            SessionSource::Files {
                fs,
                files,
                pp,
                lower,
                lenient,
            } => {
                let sources = Sources::new(files.clone(), pp, lower, *lenient, spec.jobs);
                Session::compile(fs.as_ref(), sources, spec.solve, store)
            }
            SessionSource::Object { path } => {
                let (db, hash) = open_object_path(path)?;
                let prov = object_provenance(&path.display().to_string(), hash, spec.solve);
                let (loaded, from_snap) = load(db, store.as_ref(), &prov);
                let inputs = ReloadInputs::Object {
                    path: path.clone(),
                    hash,
                };
                Ok(Session::build(loaded, spec.solve, inputs, store, from_snap))
            }
        }
    }

    /// A strict [`Session::open`] over sources read through a borrowed
    /// provider, with `jobs` compile threads (0 = one per CPU) for this
    /// build and every [`reload`](Session::reload).
    pub fn from_files_jobs(
        fs: &dyn FileProvider,
        files: &[&str],
        pp: &PpOptions,
        lower: &LowerOptions,
        opts: SolveOptions,
        snapshot_dir: Option<&Path>,
        jobs: usize,
    ) -> Result<Session, SessionError> {
        let files = files.iter().map(|f| f.to_string()).collect();
        let sources = Sources::new(files, pp, lower, false, jobs);
        Session::compile(fs, sources, opts, open_store(snapshot_dir)?)
    }

    /// Opens a session over an already linked program database, in memory:
    /// [`Session::reload`] is unavailable (there is nothing to re-read).
    pub fn from_database(db: Database, opts: SolveOptions) -> Session {
        let prov = Provenance {
            solver: opts,
            ..Provenance::default()
        };
        let (loaded, _) = load(db, None, &prov);
        Session::build(loaded, opts, ReloadInputs::None, None, false)
    }

    /// The first build of `sources` is a reload with every file stale.
    fn compile(
        fs: &dyn FileProvider,
        mut sources: Sources,
        opts: SolveOptions,
        store: Option<SnapshotStore>,
    ) -> Result<Session, SessionError> {
        let ledger = sources.recompile(fs, true)?.ledger;
        let (loaded, from_snap) = sources.link(ledger, store.as_ref(), opts)?;
        let inputs = ReloadInputs::Files(Box::new(sources));
        Ok(Session::build(loaded, opts, inputs, store, from_snap))
    }

    /// Assembles a session around an already loaded state (solved or
    /// restored from a snapshot).
    fn build(
        loaded: Loaded,
        opts: SolveOptions,
        inputs: ReloadInputs,
        snap_store: Option<SnapshotStore>,
        snapshot_loaded: bool,
    ) -> Session {
        let obs = cla_obs::global();
        let hist = |cmd: &str| {
            obs.histogram_with("cla_serve_latency_us", &[("cmd", cmd)], LATENCY_BUCKETS_US)
        };
        Session {
            state: RwLock::new(loaded),
            sources: Mutex::new(inputs),
            solve_opts: opts,
            degraded: Mutex::new(None),
            reload_in_progress: AtomicBool::new(false),
            backoff_base_ms: AtomicU64::new(1_000),
            backoff_cap_ms: AtomicU64::new(60_000),
            reload_failures: AtomicU64::new(0),
            ctr_reload_fail: obs.counter("cla_serve_reload_fail_total"),
            ctr_degraded_seconds: obs.counter("cla_serve_degraded_seconds_total"),
            epoch: AtomicU64::new(0),
            tick: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            cmd_points_to: AtomicU64::new(0),
            cmd_alias: AtomicU64::new(0),
            cmd_depend: AtomicU64::new(0),
            cmd_stats: AtomicU64::new(0),
            cmd_reload: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            reloads: AtomicU64::new(0),
            latencies: LatencyRing::new(LATENCY_WINDOW),
            slow_count: AtomicU64::new(0),
            slow_log: Mutex::new(VecDeque::new()),
            gauge_slow_log_depth: obs.gauge("cla_serve_slow_log_depth"),
            profiler: Mutex::new(None),
            hist_points_to: hist("points-to"),
            hist_alias: hist("alias"),
            hist_depend: hist("depend"),
            snap_store,
            snapshot_loaded: AtomicBool::new(snapshot_loaded),
        }
    }

    // ----- queries ----------------------------------------------------------

    /// The points-to set of the named variable (union over all objects with
    /// that name).
    pub fn points_to(&self, var: &str) -> Result<PointsToAnswer, SessionError> {
        let t0 = Instant::now();
        let key = QueryKey::PointsTo(var.to_string());
        let st = self.state.read().unwrap();
        // The epoch is bumped while the write lock is held, so reading it
        // under the read lock pins it to the snapshot answering the query.
        let epoch = self.epoch.load(Relaxed);
        let partial = !st.quarantined.is_empty();
        if let Some(CachedAnswer::Pts { resolved, targets }) = self.cache_get(&st, &key) {
            return Ok(PointsToAnswer {
                var: var.to_string(),
                resolved,
                targets,
                cached: true,
                micros: self.done(t0, Some(true), Cmd::PointsTo, var),
                epoch,
                partial,
            });
        }
        let ids = st.db.targets(var);
        if ids.is_empty() {
            return Err(SessionError::UnknownVariable(var.to_string()));
        }
        let mut set: Vec<u32> = Vec::new();
        for &id in ids {
            set.extend(st.sealed.points_to(id).iter().map(|o| o.0));
        }
        set.sort_unstable();
        set.dedup();
        let targets: Arc<Vec<Target>> = Arc::new(
            set.into_iter()
                .map(|id| Target {
                    id,
                    name: st.db.name(ObjId(id)).to_string(),
                })
                .collect(),
        );
        let resolved = ids.len();
        self.cache_put(
            &st,
            key,
            CachedAnswer::Pts {
                resolved,
                targets: Arc::clone(&targets),
            },
        );
        Ok(PointsToAnswer {
            var: var.to_string(),
            resolved,
            targets,
            cached: false,
            micros: self.done(t0, Some(false), Cmd::PointsTo, var),
            epoch,
            partial,
        })
    }

    /// Whether `*a` and `*b` may name the same object (any pairing of the
    /// objects resolving to the two names). Always computed from the sealed
    /// sets, never `cached`.
    pub fn alias(&self, a: &str, b: &str) -> Result<AliasAnswer, SessionError> {
        let t0 = Instant::now();
        let st = self.state.read().unwrap();
        let epoch = self.epoch.load(Relaxed);
        let partial = !st.quarantined.is_empty();
        let ids_a = st.db.targets(a);
        if ids_a.is_empty() {
            return Err(SessionError::UnknownVariable(a.to_string()));
        }
        let ids_b = st.db.targets(b);
        if ids_b.is_empty() {
            return Err(SessionError::UnknownVariable(b.to_string()));
        }
        let alias = ids_a
            .iter()
            .any(|&oa| ids_b.iter().any(|&ob| st.sealed.may_alias(oa, ob)));
        Ok(AliasAnswer {
            a: a.to_string(),
            b: b.to_string(),
            alias,
            cached: false,
            micros: self.done(t0, None, Cmd::Alias, &format!("{a},{b}")),
            epoch,
            partial,
        })
    }

    /// Forward dependence: everything whose value can be influenced by the
    /// named target (paper §2's type-migration query).
    pub fn depend(
        &self,
        target: &str,
        non_targets: &[String],
    ) -> Result<DependAnswer, SessionError> {
        let t0 = Instant::now();
        let key = QueryKey::Depend {
            target: target.to_string(),
            non_targets: non_targets.join("\u{1f}"),
        };
        let st = self.state.read().unwrap();
        let epoch = self.epoch.load(Relaxed);
        let partial = !st.quarantined.is_empty();
        if let Some(CachedAnswer::Depend(dependents)) = self.cache_get(&st, &key) {
            return Ok(DependAnswer {
                target: target.to_string(),
                dependents,
                cached: true,
                micros: self.done(t0, Some(true), Cmd::Depend, target),
                epoch,
                partial,
            });
        }
        let targets = st.db.targets(target);
        if targets.is_empty() {
            return Err(SessionError::UnknownVariable(target.to_string()));
        }
        // The walk reads the epoch's immutable index and takes no lock, so
        // concurrent depend queries run in parallel.
        let opts = DependOptions {
            non_targets: non_targets.to_vec(),
        };
        let report = self.flow_index(&st)?.walk(&st.db, targets, &opts);
        let dependents: Arc<Vec<DependentLine>> = Arc::new(
            report
                .dependents()
                .iter()
                .map(|d| DependentLine {
                    name: st.db.name(d.obj).to_string(),
                    weak_links: d.cost.weak_links,
                    length: d.cost.length,
                })
                .collect(),
        );
        self.cache_put(&st, key, CachedAnswer::Depend(Arc::clone(&dependents)));
        Ok(DependAnswer {
            target: target.to_string(),
            dependents,
            cached: false,
            micros: self.done(t0, Some(false), Cmd::Depend, target),
            epoch,
            partial,
        })
    }

    /// The epoch's flow index, built here by the first `depend` to ask.
    fn flow_index<'s>(&self, st: &'s Loaded) -> Result<&'s FlowIndex, SessionError> {
        st.flow
            .get_or_init(|| {
                let obs = cla_obs::global();
                let mut sp = obs.span("depend", "depend.index_build");
                let built = FlowIndex::build(&st.db, st.sealed.as_ref());
                if let Ok(index) = &built {
                    sp.set("edges", index.edges());
                    sp.set("bytes", index.bytes());
                }
                obs.counter("cla_depend_index_builds_total").inc();
                obs.counter("cla_depend_index_build_us_total")
                    .add(sp.elapsed().as_micros() as u64);
                built
            })
            .as_ref()
            .map_err(|e| SessionError::Db(e.clone()))
    }

    /// `(edge records, heap bytes)` of the epoch's flow index; `None` until
    /// the epoch's first `depend` has built it.
    pub fn flow_index_size(&self) -> Option<(usize, usize)> {
        self.state.read().unwrap().flow_size()
    }

    /// All queryable variable names with a non-empty points-to set (for
    /// transcript tooling and tests). Names the target section does not
    /// resolve (`fp6$ret`, `fp12$1`: call-site temporaries) are left out,
    /// so every listed name answers [`Session::points_to`].
    pub fn pointer_variables(&self) -> Vec<String> {
        let st = self.state.read().unwrap();
        let mut names: Vec<String> = (st.db.ids())
            .filter(|&o| !st.sealed.points_to(o).is_empty())
            .map(|o| st.db.name(o))
            .filter(|name| !st.db.targets(name).is_empty())
            .map(str::to_string)
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// The immutable snapshot currently answering queries, and its epoch.
    /// The `Arc` keeps the snapshot alive across a concurrent reload, so
    /// callers can run long read-only analyses without blocking the swap.
    pub fn snapshot(&self) -> (Arc<SealedGraph>, u64) {
        let st = self.state.read().unwrap();
        (Arc::clone(&st.sealed), self.epoch.load(Relaxed))
    }

    /// Seeds the session epoch. A freshly built session starts at 0;
    /// a multiplexing front end that evicts and rebuilds sessions (the
    /// hub) seeds the replacement past the last epoch its tenant served,
    /// so `(session name, epoch)` stays monotonic — and uniquely
    /// identifies one graph — across evict/rehydrate cycles. Call before
    /// publishing the session to clients; later reloads bump from here.
    pub fn set_epoch(&self, epoch: u64) {
        self.epoch.store(epoch, Relaxed);
    }

    // ----- reload -----------------------------------------------------------

    /// Recompiles the sources whose inputs changed — the file itself or any
    /// header it read — plus every quarantined one (all of them when
    /// `force`), relinks, re-solves, and swaps the resident state. Cached
    /// results are discarded and the epoch is bumped; in-flight queries
    /// finish against the old state. No-op (and no invalidation) when
    /// nothing changed.
    ///
    /// A session opened over a [`SessionSource::Object`] re-reads its
    /// `.clao` file instead (no provider needed — pass `None`).
    ///
    /// A failed reload never touches the resident state: queries keep
    /// answering from the last good snapshot, the session reports
    /// [`Health::Degraded`], and [`Session::maybe_recover`] retries with
    /// capped exponential backoff. While degraded, a reload always attempts
    /// the rebuild even if nothing appears changed — the failed attempt may
    /// have got past updating what change detection compares against.
    pub fn reload(
        &self,
        fs: Option<&dyn FileProvider>,
        force: bool,
    ) -> Result<ReloadReport, SessionError> {
        self.cmd_reload.fetch_add(1, Relaxed);
        let mut sp = cla_obs::global().span("serve", "serve.reload");
        let mut inputs = self.sources.lock().unwrap();
        let force = force || self.degraded.lock().unwrap().is_some();
        self.reload_in_progress.store(true, Relaxed);
        let result = self.reload_inner(&mut inputs, fs, force, &mut sp);
        self.reload_in_progress.store(false, Relaxed);
        match &result {
            Ok(_) => self.clear_degraded(),
            // Usage errors don't mean the data went bad; only real rebuild
            // failures enter degraded mode.
            Err(SessionError::NoSources | SessionError::NoProvider) => {}
            Err(e) => self.note_reload_failure(&e.to_string()),
        }
        result
    }

    fn reload_inner(
        &self,
        inputs: &mut ReloadInputs,
        fs: Option<&dyn FileProvider>,
        force: bool,
        sp: &mut cla_obs::Span<'_>,
    ) -> Result<ReloadReport, SessionError> {
        let (fresh, from_snap, recompiled) = match inputs {
            ReloadInputs::None => return Err(SessionError::NoSources),
            ReloadInputs::Files(sources) => {
                let fs = fs.ok_or(SessionError::NoProvider)?;
                let Recompiled {
                    recompiled,
                    ledger,
                    changed,
                } = sources.recompile(fs, force)?;
                if !changed {
                    sp.set("relinked", false);
                    return Ok(ReloadReport {
                        recompiled,
                        invalidated_results: 0,
                        epoch: self.epoch.load(Relaxed),
                        relinked: false,
                        quarantined: ledger.into_iter().map(|q| q.file).collect(),
                    });
                }
                let (loaded, from_snap) =
                    sources.link(ledger, self.snap_store.as_ref(), self.solve_opts)?;
                (loaded, from_snap, recompiled)
            }
            ReloadInputs::Object { path, hash } => {
                let (db, new_hash) = open_object_path(path)?;
                if !force && new_hash == *hash {
                    sp.set("relinked", false);
                    return Ok(ReloadReport {
                        recompiled: Vec::new(),
                        invalidated_results: 0,
                        epoch: self.epoch.load(Relaxed),
                        relinked: false,
                        quarantined: Vec::new(),
                    });
                }
                *hash = new_hash;
                let prov =
                    object_provenance(&path.display().to_string(), new_hash, self.solve_opts);
                let (loaded, from_snap) = load(db, self.snap_store.as_ref(), &prov);
                (loaded, from_snap, vec![path.display().to_string()])
            }
        };

        let mut st = self.state.write().unwrap();
        let invalidated = st.results.read().unwrap().len();
        *st = fresh;
        let quarantined: Vec<String> = st.quarantined.iter().map(|q| q.file.clone()).collect();
        self.snapshot_loaded.store(from_snap, Relaxed);
        let epoch = self.epoch.fetch_add(1, Relaxed) + 1;
        self.reloads.fetch_add(1, Relaxed);
        sp.set("relinked", true);
        sp.set("recompiled", recompiled.len());
        sp.set("invalidated", invalidated);
        sp.set("quarantined", quarantined.len());
        sp.set("epoch", epoch);
        Ok(ReloadReport {
            recompiled,
            invalidated_results: invalidated,
            epoch,
            relinked: true,
            quarantined,
        })
    }

    /// Health as seen by the `health` wire command. A session with
    /// quarantined units reports [`Health::Partial`]: it serves, but the
    /// answers cover only the units that compiled.
    pub fn health(&self) -> Health {
        if self.reload_in_progress.load(Relaxed) {
            Health::Loading
        } else if self.degraded.lock().unwrap().is_some() {
            Health::Degraded
        } else if !self.state.read().unwrap().quarantined.is_empty() {
            Health::Partial
        } else {
            Health::Ok
        }
    }

    /// The quarantine ledger of the snapshot currently answering queries
    /// (empty for strict sessions).
    pub fn quarantined(&self) -> Vec<Quarantined> {
        self.state.read().unwrap().quarantined.clone()
    }

    /// The last reload error while degraded (`None` when healthy).
    pub fn last_reload_error(&self) -> Option<String> {
        self.degraded
            .lock()
            .unwrap()
            .as_ref()
            .map(|d| d.last_error.clone())
    }

    /// If the session is degraded and the backoff window has elapsed,
    /// attempt a recovery reload. Returns `true` when the session became
    /// healthy. The server calls this ahead of each request, so recovery
    /// needs no background thread and happens at the first query after the
    /// underlying fault is fixed.
    pub fn maybe_recover(&self, fs: Option<&dyn FileProvider>) -> bool {
        {
            let slot = self.degraded.lock().unwrap();
            match slot.as_ref() {
                Some(d) if Instant::now() >= d.next_retry => {}
                _ => return false,
            }
        }
        if self.reload_in_progress.load(Relaxed) {
            return false;
        }
        self.reload(fs, true).is_ok()
    }

    /// Overrides the retry backoff (default: 1 s base, 60 s cap). Mostly
    /// for tests, which can't wait out real backoff windows.
    pub fn set_reload_backoff(&self, base: Duration, cap: Duration) {
        self.backoff_base_ms.store(base.as_millis() as u64, Relaxed);
        self.backoff_cap_ms.store(cap.as_millis() as u64, Relaxed);
    }

    fn note_reload_failure(&self, msg: &str) {
        self.reload_failures.fetch_add(1, Relaxed);
        self.ctr_reload_fail.inc();
        let now = Instant::now();
        let mut slot = self.degraded.lock().unwrap();
        let (failures, since) = match slot.as_ref() {
            Some(d) => (d.failures.saturating_add(1), d.since),
            None => (1, now),
        };
        let base = self.backoff_base_ms.load(Relaxed);
        let cap = self.backoff_cap_ms.load(Relaxed);
        let delay = base
            .saturating_mul(1u64 << u64::from((failures - 1).min(16)))
            .min(cap);
        *slot = Some(Degraded {
            last_error: msg.to_string(),
            failures,
            since,
            next_retry: now + Duration::from_millis(delay),
        });
    }

    fn clear_degraded(&self) {
        let mut slot = self.degraded.lock().unwrap();
        if let Some(d) = slot.take() {
            self.ctr_degraded_seconds.add(d.since.elapsed().as_secs());
        }
    }

    // ----- stats ------------------------------------------------------------

    /// Snapshot of the session's counters and latency percentiles. The
    /// latency window is a fixed-size ring, so this copies at most
    /// `LATENCY_WINDOW` samples no matter how long the session has run.
    pub fn stats(&self) -> SessionStats {
        self.cmd_stats.fetch_add(1, Relaxed);
        let (solver, quarantined, (flow_edges, flow_bytes)) = {
            let st = self.state.read().unwrap();
            let flow = st.flow_size().unwrap_or((0, 0));
            (st.sealed.stats(), st.quarantined.len() as u64, flow)
        };
        let mut lat = self.latencies.snapshot();
        lat.sort_unstable();
        // One guarded read for both fields: a guard held inside the struct
        // literal would still be live when a second `lock()` ran.
        let (degraded, last_error) = {
            let d = self.degraded.lock().unwrap();
            (d.is_some(), d.as_ref().map(|d| d.last_error.clone()))
        };
        let (snap_loads, snap_saves, snap_mismatches) = self
            .snap_store
            .as_ref()
            .map_or((0, 0, 0), SnapshotStore::counters);
        let snap_prov = self.snap_store.as_ref().map(|s| {
            s.stored_provenance().map_or_else(
                || "none".to_string(),
                |p| {
                    format!(
                        "{} input(s), inputs_hash={:016x}, cache={}, cycle_elim={}",
                        p.inputs.len(),
                        xxh64(format!("{:?}", p.inputs).as_bytes(), 0),
                        p.solver.cache,
                        p.solver.cycle_elim,
                    )
                },
            )
        });
        SessionStats {
            queries: self.queries.load(Relaxed),
            cmd_points_to: self.cmd_points_to.load(Relaxed),
            cmd_alias: self.cmd_alias.load(Relaxed),
            cmd_depend: self.cmd_depend.load(Relaxed),
            cmd_stats: self.cmd_stats.load(Relaxed),
            cmd_reload: self.cmd_reload.load(Relaxed),
            result_cache_hits: self.hits.load(Relaxed),
            result_cache_misses: self.misses.load(Relaxed),
            flow_index_edges: flow_edges as u64,
            flow_index_bytes: flow_bytes as u64,
            reloads: self.reloads.load(Relaxed),
            reload_failures: self.reload_failures.load(Relaxed),
            degraded,
            partial: quarantined > 0,
            quarantined,
            front_quarantined_total: cla_obs::global()
                .counter("cla_front_quarantined_total")
                .get(),
            front_budget_exceeded_total: cla_obs::global()
                .counter("cla_front_budget_exceeded_total")
                .get(),
            last_error,
            epoch: self.epoch.load(Relaxed),
            p50_micros: nearest_rank(&lat, 0.50),
            p90_micros: nearest_rank(&lat, 0.90),
            p99_micros: nearest_rank(&lat, 0.99),
            slow_queries: self.slow_count.load(Relaxed),
            latency_samples: lat.len(),
            latency_capacity: self.latencies.capacity(),
            solver,
            snapshot_loaded: self.snapshot_loaded.load(Relaxed),
            snapshot_loads: snap_loads,
            snapshot_saves: snap_saves,
            snapshot_mismatches: snap_mismatches,
            snapshot_provenance: snap_prov,
            peak_rss_bytes: cla_obs::peak_rss_bytes(),
            alloc: cla_prof::alloc_snapshot(),
        }
    }

    /// Whether the graph serving the current epoch came from the snapshot
    /// store (false when no store is attached or the last load solved).
    pub fn snapshot_loaded(&self) -> bool {
        self.snapshot_loaded.load(Relaxed)
    }

    // ----- internals --------------------------------------------------------

    fn cache_get(&self, st: &Loaded, key: &QueryKey) -> Option<CachedAnswer> {
        let map = st.results.read().unwrap();
        let entry = map.get(key)?;
        entry
            .last_used
            .store(self.tick.fetch_add(1, Relaxed), Relaxed);
        Some(match &entry.val {
            CachedAnswer::Pts { resolved, targets } => CachedAnswer::Pts {
                resolved: *resolved,
                targets: Arc::clone(targets),
            },
            CachedAnswer::Depend(d) => CachedAnswer::Depend(Arc::clone(d)),
        })
    }

    fn cache_put(&self, st: &Loaded, key: QueryKey, val: CachedAnswer) {
        let mut map = st.results.write().unwrap();
        if map.len() >= RESULT_CACHE_CAP && !map.contains_key(&key) {
            // Evict the least recently used entry (linear scan: the cap is
            // small and eviction is rare compared to lookups).
            if let Some(lru) = map
                .iter()
                .min_by_key(|(_, e)| e.last_used.load(Relaxed))
                .map(|(k, _)| k.clone())
            {
                map.remove(&lru);
            }
        }
        map.insert(
            key,
            CacheEntry {
                val,
                last_used: AtomicU64::new(self.tick.fetch_add(1, Relaxed)),
            },
        );
    }

    /// Records one finished query and, for a command that consults the
    /// result cache, whether it hit; returns its latency in microseconds.
    fn done(&self, t0: Instant, hit: Option<bool>, cmd: Cmd, detail: &str) -> u64 {
        let micros = t0.elapsed().as_micros() as u64;
        self.queries.fetch_add(1, Relaxed);
        if let Some(hit) = hit {
            let counter = if hit { &self.hits } else { &self.misses };
            counter.fetch_add(1, Relaxed);
        }
        self.latencies.record(micros);
        let (counter, hist) = match cmd {
            Cmd::PointsTo => (&self.cmd_points_to, &self.hist_points_to),
            Cmd::Alias => (&self.cmd_alias, &self.hist_alias),
            Cmd::Depend => (&self.cmd_depend, &self.hist_depend),
        };
        counter.fetch_add(1, Relaxed);
        hist.observe(micros);
        if micros >= DEFAULT_SLOW_THRESHOLD_US {
            self.slow_count.fetch_add(1, Relaxed);
            let obs = cla_obs::global();
            obs.counter("cla_serve_slow_queries_total").inc();
            obs.instant(
                "serve",
                "slow_query",
                vec![
                    ("cmd", cmd.name().into()),
                    ("detail", detail.into()),
                    ("us", micros.into()),
                ],
            );
            let mut log = self.slow_log.lock().unwrap();
            if log.len() == SLOW_LOG_CAP {
                log.pop_front();
            }
            log.push_back(SlowQuery {
                cmd: cmd.name(),
                detail: detail.to_string(),
                micros,
                epoch: self.epoch.load(Relaxed),
            });
            self.gauge_slow_log_depth.set(log.len() as u64);
        }
        micros
    }

    /// The most recent slow queries, oldest first. The log is bounded (128
    /// entries); older entries are dropped.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.slow_log.lock().unwrap().iter().cloned().collect()
    }

    // ----- live profiling ---------------------------------------------------

    /// Start the in-process sampling profiler (the wire `profile start`).
    /// Errors if one is already running — stop it first; two samplers
    /// would double-count.
    pub fn profile_start(&self, interval: Duration) -> Result<(), String> {
        let mut slot = self.profiler.lock().unwrap();
        if slot.is_some() {
            return Err("profiler already running".to_string());
        }
        *slot = Some(cla_prof::Profiler::start(interval));
        Ok(())
    }

    /// Snapshot the running profiler without stopping it (`profile dump`).
    /// `None` when no profiler is running.
    pub fn profile_dump(&self) -> Option<cla_prof::Profile> {
        self.profiler.lock().unwrap().as_ref().map(|p| p.dump())
    }

    /// Stop the profiler and return its final profile (`profile stop`).
    /// `None` when no profiler was running.
    pub fn profile_stop(&self) -> Option<cla_prof::Profile> {
        self.profiler
            .lock()
            .unwrap()
            .take()
            .map(cla_prof::Profiler::stop)
    }

    /// Whether a wire-started profiler is currently sampling.
    pub fn profiling(&self) -> bool {
        self.profiler.lock().unwrap().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cla_cfront::MemoryFs;
    use cla_cladb::write_object;
    use cla_ir::compile_file;

    fn memfs(files: &[(&str, &str)]) -> MemoryFs {
        let mut fs = MemoryFs::new();
        for (p, c) in files {
            fs.add(*p, *c);
        }
        fs
    }

    fn sample_session() -> (Session, MemoryFs) {
        let fs = memfs(&[
            (
                "a.c",
                "int x, y; int *p, **pp; void fa(void) { p = &x; pp = &p; }",
            ),
            (
                "b.c",
                "extern int *p; extern int **pp; int *q; void fb(void) { q = *pp; }",
            ),
        ]);
        let s = Session::from_files_jobs(
            &fs,
            &["a.c", "b.c"],
            &PpOptions::default(),
            &LowerOptions::default(),
            SolveOptions::default(),
            None,
            1,
        )
        .unwrap();
        (s, fs)
    }

    #[test]
    fn points_to_and_cache() {
        let (s, _) = sample_session();
        let first = s.points_to("q").unwrap();
        assert!(!first.cached);
        let names: Vec<&str> = first.targets.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, vec!["x"]);
        let second = s.points_to("q").unwrap();
        assert!(second.cached);
        assert_eq!(second.targets, first.targets);
        let st = s.stats();
        assert_eq!(st.result_cache_hits, 1);
        assert_eq!(st.result_cache_misses, 1);
        assert!(st.hit_rate() > 0.4 && st.hit_rate() < 0.6);
    }

    #[test]
    fn alias_queries() {
        let (s, _) = sample_session();
        assert!(s.alias("p", "q").unwrap().alias);
        // Alias is symmetric, and answered from the sets every time.
        let again = s.alias("q", "p").unwrap();
        assert!(again.alias && !again.cached);
        assert!(!s.alias("pp", "q").unwrap().alias);
        let st = s.stats();
        assert_eq!((st.cmd_alias, st.queries), (3, 3));
        assert_eq!(st.result_cache_hits + st.result_cache_misses, 0);
        assert!(s.points_to("nope").is_err());
        assert!(s.alias("p", "nope").is_err());
    }

    #[test]
    fn depend_queries() {
        let fs = memfs(&[("m.c", "int t; int a, b; void f(void) { a = t; b = a; }")]);
        let s = Session::from_files_jobs(
            &fs,
            &["m.c"],
            &PpOptions::default(),
            &LowerOptions::default(),
            SolveOptions::default(),
            None,
            1,
        )
        .unwrap();
        let ans = s.depend("t", &[]).unwrap();
        let names: Vec<&str> = ans.dependents.iter().map(|d| d.name.as_str()).collect();
        assert!(names.contains(&"a") && names.contains(&"b"), "{names:?}");
        let pruned = s.depend("t", &["a".to_string()]).unwrap();
        assert!(
            !pruned.cached,
            "different non-targets must not share a cache entry"
        );
        assert!(!pruned.dependents.iter().any(|d| d.name == "a"));
        assert!(s.depend("t", &[]).unwrap().cached);
    }

    #[test]
    fn reload_swaps_answers_and_invalidates() {
        let (s, mut fs) = sample_session();
        assert_eq!(
            s.points_to("q")
                .unwrap()
                .targets
                .iter()
                .map(|t| t.name.clone())
                .collect::<Vec<_>>(),
            vec!["x"]
        );
        // Nothing changed: no-op, cache kept.
        let r = s.reload(Some(&fs), false).unwrap();
        assert!(!r.relinked);
        assert!(s.points_to("q").unwrap().cached);

        // Redirect p to y in a.c only.
        fs.add(
            "a.c",
            "int x, y; int *p, **pp; void fa(void) { p = &y; pp = &p; }",
        );
        let r = s.reload(Some(&fs), false).unwrap();
        assert!(r.relinked);
        assert_eq!(r.recompiled, vec!["a.c".to_string()]);
        assert!(r.invalidated_results >= 1);
        let after = s.points_to("q").unwrap();
        assert!(!after.cached, "stale answer survived the reload");
        assert_eq!(
            after
                .targets
                .iter()
                .map(|t| t.name.clone())
                .collect::<Vec<_>>(),
            vec!["y"]
        );
        assert_eq!(s.stats().reloads, 1);
        assert_eq!(s.stats().epoch, 1);
    }

    #[test]
    fn reload_needs_sources() {
        let fs = memfs(&[("a.c", "int x; int *p; void f(void) { p = &x; }")]);
        let (unit, _) =
            compile_file(&fs, "a.c", &PpOptions::default(), &LowerOptions::default()).unwrap();
        let db = Database::open(write_object(&unit)).unwrap();
        let s = Session::from_database(db, SolveOptions::default());
        assert!(matches!(
            s.reload(Some(&fs), false),
            Err(SessionError::NoSources)
        ));
        assert_eq!(
            s.points_to("p")
                .unwrap()
                .targets
                .iter()
                .map(|t| t.name.clone())
                .collect::<Vec<_>>(),
            vec!["x"]
        );
    }

    #[test]
    fn concurrent_queries_agree() {
        let (s, _) = sample_session();
        let expected = s.points_to("q").unwrap().targets;
        let s = Arc::new(s);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let s = Arc::clone(&s);
                let expected = Arc::clone(&expected);
                scope.spawn(move || {
                    for _ in 0..50 {
                        let got = s.points_to("q").unwrap();
                        assert_eq!(got.targets, expected);
                        assert!(s.alias("p", "q").unwrap().alias);
                    }
                });
            }
        });
        let st = s.stats();
        assert!(st.result_cache_hits > 0);
        assert!(st.queries >= 800);
        assert!(st.p50_micros <= st.p99_micros);
    }

    #[test]
    fn latency_buffer_stays_bounded() {
        let (s, _) = sample_session();
        // 100k queries: far past the window. Memory must stay flat — the
        // ring holds exactly LATENCY_WINDOW samples and stats never copies
        // more than that.
        for _ in 0..100_000 {
            let _ = s.points_to("q").unwrap();
        }
        let st = s.stats();
        assert_eq!(st.queries, 100_000);
        assert_eq!(st.latency_capacity, LATENCY_WINDOW);
        assert_eq!(
            st.latency_samples, LATENCY_WINDOW,
            "window must be full, not growing"
        );
        assert!(st.p50_micros <= st.p99_micros);
    }

    #[test]
    fn answers_carry_their_epoch() {
        let (s, mut fs) = sample_session();
        assert_eq!(s.points_to("q").unwrap().epoch, 0);
        assert_eq!(s.alias("p", "q").unwrap().epoch, 0);
        fs.add(
            "a.c",
            "int x, y; int *p, **pp; void fa(void) { p = &y; pp = &p; }",
        );
        s.reload(Some(&fs), false).unwrap();
        assert_eq!(s.points_to("q").unwrap().epoch, 1);
        assert_eq!(s.alias("p", "q").unwrap().epoch, 1);
        let (snap, epoch) = s.snapshot();
        assert_eq!(epoch, 1);
        assert!(snap.object_count() > 0);
    }

    #[test]
    fn lenient_session_serves_partial_and_reload_recovers() {
        let mut fs = memfs(&[
            (
                "a.c",
                "int x, y; int *p, **pp; void fa(void) { p = &x; pp = &p; }",
            ),
            ("b.c", "int broken = ;"),
        ]);
        let s = Session::open(&SessionSpec {
            source: SessionSource::Files {
                fs: Arc::new(fs.clone()),
                files: vec!["a.c".into(), "b.c".into()],
                pp: PpOptions::default(),
                lower: LowerOptions::default(),
                lenient: true,
            },
            solve: SolveOptions::default(),
            snapshot_dir: None,
            jobs: 1,
        })
        .unwrap();
        assert_eq!(s.health(), Health::Partial);
        let ledger = s.quarantined();
        assert_eq!(ledger.len(), 1);
        assert_eq!(ledger[0].file, "b.c");
        // The surviving unit answers, flagged partial.
        let a = s.points_to("p").unwrap();
        assert!(a.partial);
        assert_eq!(
            a.targets
                .iter()
                .map(|t| t.name.as_str())
                .collect::<Vec<_>>(),
            vec!["x"]
        );
        let st = s.stats();
        assert!(st.partial);
        assert_eq!(st.quarantined, 1);
        assert!(st.front_quarantined_total >= 1);

        // Reload with b.c unchanged: the quarantined file is retried, still
        // fails, and nothing is relinked (ledger stable).
        let r = s.reload(Some(&fs), false).unwrap();
        assert!(!r.relinked);
        assert_eq!(r.quarantined, vec!["b.c".to_string()]);
        assert_eq!(s.health(), Health::Partial);

        // Fix b.c: the retry recovers it, the ledger empties, answers stop
        // being partial.
        fs.add("b.c", "extern int *p; int *q; void fb(void) { q = p; }");
        let r = s.reload(Some(&fs), false).unwrap();
        assert!(r.relinked);
        assert!(r.quarantined.is_empty());
        assert!(r.recompiled.contains(&"b.c".to_string()));
        assert_eq!(s.health(), Health::Ok);
        let a = s.points_to("q").unwrap();
        assert!(!a.partial);
        assert_eq!(
            a.targets
                .iter()
                .map(|t| t.name.as_str())
                .collect::<Vec<_>>(),
            vec!["x"]
        );
    }

    #[test]
    fn stats_json_line() {
        let (s, _) = sample_session();
        let _ = s.points_to("q").unwrap();
        let line = s.stats().to_json().encode();
        let v = crate::json::parse(&line).unwrap();
        assert_eq!(v.get("queries").and_then(Value::as_u64), Some(1));
        assert!(v.get("complex_in_core").is_some());
        assert!(v.get("p99_us").is_some());
    }
}
