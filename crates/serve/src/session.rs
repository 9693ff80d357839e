//! The in-process query session: a solved program, an epoch-tagged result
//! cache in front of it, incremental reload, and one sealer thread.
//!
//! A [`Session`] is the server's engine and is directly usable as a library:
//!
//! * the linked [`cla_cladb::Database`] and the solved graph are loaded once and
//!   shared; queries run concurrently under a read lock against data no
//!   query changes, so N clients scale to N cores;
//! * an epoch answers from its graph as the fixpoint froze it
//!   ([`cla_core::Warm`], one walk per object asked) until it is sealed
//!   ([`cla_core::SealedGraph`], a lookup). The session's sealer thread
//!   seals the newest epoch and saves its snapshot in the background; a
//!   query that needs the whole relation (`depend`, `stats`,
//!   [`Session::snapshot`]) seals the epoch itself if it gets there first;
//! * repeated `points-to` and `depend` queries are answered from a bounded
//!   LRU of finished results without touching the snapshot at all (`alias`
//!   goes straight to the sealed sets: its pairs rarely repeat, and two
//!   set lookups cost about what a cache probe does);
//! * the first `depend` of an epoch builds that epoch's
//!   [`cla_depend::FlowIndex`]; every later one walks it in time
//!   proportional to its answer;
//! * [`Session::reload`] recompiles only the sources whose inputs changed
//!   (the file or any header it read) through the pipeline's compile pool,
//!   relinks and solves to fixpoint *off to the side*, then swaps the new
//!   epoch in under the write lock, bumps the session epoch, discards
//!   every cached result, and hands the epoch to the sealer. In-flight
//!   queries finish against the old epoch; every answer carries the epoch
//!   it was computed at.
//!
//! One epoch's state and the sealer live in `epoch`, where the program
//! comes from in `sources`, and what the session counts in `stats`.

use crate::epoch::{CachedAnswer, Loaded, QueryKey, Sealer};
use crate::sources::{link, open_object, ReloadInputs};
use crate::stats::{summary, Cmd, Meter, SessionStats, SlowQuery};
use cla_cfront::{CError, FileProvider};
use cla_cladb::{Database, DbError};
use cla_core::pipeline::Quarantined;
use cla_core::{SealedGraph, SolveOptions};
use cla_depend::{DependOptions, FlowIndex};
use cla_ir::ObjId;
use cla_obs::{nearest_rank, Counter};
use cla_snap::SnapshotStore;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Errors a query or reload can produce.
#[derive(Debug)]
pub enum SessionError {
    /// No object in the program has this name.
    UnknownVariable(String),
    /// `reload` on a session with nothing to re-read: one opened in memory
    /// by [`Session::from_database`] rather than from a [`crate::SessionSpec`].
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

/// The objects `name` resolves to; a name that resolves to none is
/// [`SessionError::UnknownVariable`].
fn resolve<'d>(db: &'d Database, name: &str) -> Result<&'d [ObjId], SessionError> {
    match db.targets(name) {
        [] => Err(SessionError::UnknownVariable(name.to_string())),
        ids => Ok(ids),
    }
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
    /// Dates each use of a cached result, for the cache's LRU eviction.
    tick: AtomicU64,
    meter: Meter,
    /// The sampling profiler while a wire `profile start` is live.
    pub(crate) profiler: Mutex<Option<cla_prof::Profiler>>,
    /// Snapshot persistence, when the session was opened with a snapshot
    /// directory: every build and reload loads from it, and the sealer
    /// saves to it.
    snap_store: Option<Arc<SnapshotStore>>,
    /// Seals and saves the epochs; dropped last, when it has saved the
    /// newest.
    sealer: Sealer,
}

impl Session {
    /// Assembles a session around its first epoch (at fixpoint or restored
    /// from a snapshot) and hands that epoch to a new sealer.
    pub(crate) fn build(
        loaded: Loaded,
        opts: SolveOptions,
        inputs: ReloadInputs,
        snap_store: Option<Arc<SnapshotStore>>,
    ) -> Session {
        let graph = Arc::clone(&loaded.graph);
        let on_disk = graph.loaded.then(|| graph.prov.clone());
        let sealer = Sealer::spawn(snap_store.clone(), on_disk);
        sealer.hand_off(graph);
        let obs = cla_obs::global();
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
            meter: Meter::new(),
            profiler: Mutex::new(None),
            snap_store,
            sealer,
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
        let partial = st.report.is_partial();
        if let Some(CachedAnswer::Pts { resolved, targets }) = st.cache_get(&key, &self.tick) {
            return Ok(PointsToAnswer {
                var: var.to_string(),
                resolved,
                targets,
                cached: true,
                micros: self.meter.done(t0, Some(true), Cmd::PointsTo, var, epoch),
                epoch,
                partial,
            });
        }
        let ids = resolve(&st.db, var)?;
        let graph = st.graph.reader();
        let mut set: Vec<u32> = Vec::new();
        for &id in ids {
            set.extend(graph.points_to(id).iter().map(|o| o.0));
        }
        self.meter.count_demand(&graph);
        drop(graph);
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
        let cached = CachedAnswer::Pts {
            resolved,
            targets: Arc::clone(&targets),
        };
        st.cache_put(key, cached, &self.tick);
        Ok(PointsToAnswer {
            var: var.to_string(),
            resolved,
            targets,
            cached: false,
            micros: self.meter.done(t0, Some(false), Cmd::PointsTo, var, epoch),
            epoch,
            partial,
        })
    }

    /// Whether `*a` and `*b` may name the same object (any pairing of the
    /// objects resolving to the two names). Always computed from the
    /// epoch's sets, never `cached`.
    pub fn alias(&self, a: &str, b: &str) -> Result<AliasAnswer, SessionError> {
        let t0 = Instant::now();
        let st = self.state.read().unwrap();
        let epoch = self.epoch.load(Relaxed);
        let partial = st.report.is_partial();
        let (ids_a, ids_b) = (resolve(&st.db, a)?, resolve(&st.db, b)?);
        let graph = st.graph.reader();
        let alias = ids_a
            .iter()
            .any(|&oa| ids_b.iter().any(|&ob| graph.may_alias(oa, ob)));
        self.meter.count_demand(&graph);
        drop(graph);
        Ok(AliasAnswer {
            a: a.to_string(),
            b: b.to_string(),
            alias,
            cached: false,
            micros: self
                .meter
                .done(t0, None, Cmd::Alias, &format!("{a},{b}"), epoch),
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
        let partial = st.report.is_partial();
        if let Some(CachedAnswer::Depend(dependents)) = st.cache_get(&key, &self.tick) {
            return Ok(DependAnswer {
                target: target.to_string(),
                dependents,
                cached: true,
                micros: self.meter.done(t0, Some(true), Cmd::Depend, target, epoch),
                epoch,
                partial,
            });
        }
        let targets = resolve(&st.db, target)?;
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
        st.cache_put(
            key,
            CachedAnswer::Depend(Arc::clone(&dependents)),
            &self.tick,
        );
        Ok(DependAnswer {
            target: target.to_string(),
            dependents,
            cached: false,
            micros: self.meter.done(t0, Some(false), Cmd::Depend, target, epoch),
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
                let built = FlowIndex::build(&st.db, st.graph.sealed().as_ref());
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
        let sealed = st.graph.sealed();
        let mut names: Vec<String> = (st.db.ids())
            .filter(|&o| !sealed.points_to(o).is_empty())
            .map(|o| st.db.name(o))
            .filter(|name| !st.db.targets(name).is_empty())
            .map(str::to_string)
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// The sealed graph of the epoch currently answering queries, and that
    /// epoch. The `Arc` keeps the graph alive across a concurrent reload,
    /// so callers can run long read-only analyses without blocking the
    /// swap.
    ///
    /// Seals the epoch if no one has yet, and returns once the sealer is
    /// done with it — its snapshot saved, when the session has a store —
    /// or at once when a newer epoch replaced it before the sealer started
    /// it.
    pub fn snapshot(&self) -> (Arc<SealedGraph>, u64) {
        let (graph, epoch) = {
            let st = self.state.read().unwrap();
            (Arc::clone(&st.graph), self.epoch.load(Relaxed))
        };
        let sealed = Arc::clone(graph.sealed());
        self.sealer.wait_for(&graph);
        (sealed, epoch)
    }

    /// The epoch currently answering queries.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Relaxed)
    }

    /// Seeds the session epoch. A freshly built session starts at 0;
    /// a multiplexing front end that evicts and rebuilds sessions (the
    /// hub) seeds the replacement past the last epoch its tenant served,
    /// so `(session name, epoch)` stays monotonic — and uniquely
    /// identifies one graph — across evict/rehydrate cycles. Call before
    /// publishing the session to clients; later reloads bump from here.
    pub fn set_epoch(&self, epoch: u64) {
        // Held shared: no reload swaps the graph between the two stores.
        let st = self.state.read().unwrap();
        self.epoch.store(epoch, Relaxed);
        st.graph.epoch.store(epoch, Relaxed);
    }

    // ----- reload -----------------------------------------------------------

    /// Recompiles the sources whose inputs changed — the file itself or any
    /// header it read — plus every quarantined one (all of them when
    /// `force`), relinks, re-solves to fixpoint, and swaps the resident
    /// state; the sealer seals and saves the new epoch in the background.
    /// Cached results are discarded and the epoch is bumped; in-flight
    /// queries finish against the old state. No-op (and no invalidation)
    /// when nothing changed.
    ///
    /// A session opened over a [`crate::SessionSource::Object`] re-reads its
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
        self.meter.cmd_reload.fetch_add(1, Relaxed);
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
        let mut unchanged = |quarantined: Vec<String>| {
            sp.set("relinked", false);
            Ok(ReloadReport {
                recompiled: Vec::new(),
                invalidated_results: 0,
                epoch: self.epoch.load(Relaxed),
                relinked: false,
                quarantined,
            })
        };
        let store = self.snap_store.as_deref();
        let (fresh, recompiled) = match inputs {
            ReloadInputs::None => return Err(SessionError::NoSources),
            ReloadInputs::Files(build) => {
                let fs = fs.ok_or(SessionError::NoProvider)?;
                let Some(mut built) = link(build, fs, self.solve_opts, force)? else {
                    let ledger = self.quarantined().into_iter().map(|q| q.file);
                    return unchanged(ledger.collect());
                };
                let recompiled = std::mem::take(&mut built.recompiled);
                (Loaded::new(built, store), recompiled)
            }
            ReloadInputs::Object { path, hash } => {
                let (built, new_hash) = open_object(path, self.solve_opts)?;
                if !force && new_hash == *hash {
                    return unchanged(Vec::new());
                }
                *hash = new_hash;
                let loaded = Loaded::new(built, store);
                (loaded, vec![path.display().to_string()])
            }
        };

        let graph = Arc::clone(&fresh.graph);
        let ledger = fresh.report.quarantined.iter();
        let quarantined: Vec<String> = ledger.map(|q| q.file.clone()).collect();
        let mut st = self.state.write().unwrap();
        let invalidated = st.results.read().unwrap().len();
        let old = std::mem::replace(&mut *st, fresh);
        let epoch = self.epoch.fetch_add(1, Relaxed) + 1;
        graph.epoch.store(epoch, Relaxed);
        drop(st);
        // The old epoch's database, sets, index and results are freed
        // here, with no query waiting on the lock.
        drop(old);
        self.sealer.hand_off(graph);
        self.meter.reloads.fetch_add(1, Relaxed);
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
        } else if self.state.read().unwrap().report.is_partial() {
            Health::Partial
        } else {
            Health::Ok
        }
    }

    /// The quarantine ledger of the snapshot currently answering queries
    /// (empty for strict sessions).
    pub fn quarantined(&self) -> Vec<Quarantined> {
        self.state.read().unwrap().report.quarantined.clone()
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
        let m = &self.meter;
        m.cmd_stats.fetch_add(1, Relaxed);
        let (sealed, loaded, solver, quarantined, (flow_edges, flow_bytes), snap_prov, built) = {
            let st = self.state.read().unwrap();
            let sealed = st.graph.is_sealed();
            let flow = st.flow_size().unwrap_or((0, 0));
            let snap_prov = self.snap_store.as_ref().map(|_| summary(&st.graph.prov));
            (
                sealed,
                st.graph.loaded,
                st.graph.sealed().stats(),
                st.report.quarantined.len() as u64,
                flow,
                snap_prov,
                (
                    st.report.compile_cache_hits as u64,
                    st.report.program_loaded,
                ),
            )
        };
        let cmds = [&m.cmd_points_to, &m.cmd_alias, &m.cmd_depend].map(|c| c.load(Relaxed));
        let mut lat = m.latencies.snapshot();
        lat.sort_unstable();
        // One guarded read for both fields: a guard held inside the struct
        // literal would still be live when a second `lock()` ran.
        let (degraded, last_error) = {
            let d = self.degraded.lock().unwrap();
            (d.is_some(), d.as_ref().map(|d| d.last_error.clone()))
        };
        let (snap_loads, snap_saves, snap_mismatches) = self
            .snap_store
            .as_deref()
            .map_or((0, 0, 0), SnapshotStore::counters);
        SessionStats {
            queries: cmds.iter().sum(),
            cmd_points_to: cmds[0],
            cmd_alias: cmds[1],
            cmd_depend: cmds[2],
            cmd_stats: m.cmd_stats.load(Relaxed),
            cmd_reload: m.cmd_reload.load(Relaxed),
            result_cache_hits: m.hits.load(Relaxed),
            result_cache_misses: m.misses.load(Relaxed),
            flow_index_edges: flow_edges as u64,
            flow_index_bytes: flow_bytes as u64,
            reloads: m.reloads.load(Relaxed),
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
            slow_queries: m.slow_count.load(Relaxed),
            latency_samples: lat.len(),
            latency_capacity: m.latencies.capacity(),
            solver,
            sealed,
            compile_cache_hits: built.0,
            program_loaded: built.1,
            snapshot_loaded: loaded,
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
        self.state.read().unwrap().graph.loaded
    }

    /// The most recent slow queries, oldest first. The log is bounded (128
    /// entries); older entries are dropped.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.meter.slow_queries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::{EpochGraph, Slot};
    use crate::json::Value;
    use crate::stats::LATENCY_WINDOW;
    use crate::{SessionSource, SessionSpec};
    use cla_cfront::{MemoryFs, PpOptions};
    use cla_cladb::write_object;
    use cla_core::pipeline::{Provenance, Solved};
    use cla_core::Warm;
    use cla_ir::{compile_file, LowerOptions};

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

    /// Holds `s`'s sealer inside the seal of an epoch no query sees, until
    /// the returned sender is used; epochs handed to it meanwhile wait in
    /// its slot. Join the returned thread after the release.
    fn hold_sealer(s: &Session) -> (std::sync::mpsc::Sender<()>, std::thread::JoinHandle<()>) {
        let busy = {
            let st = s.state.read().unwrap();
            let warm = Warm::from_database(&st.db, SolveOptions::default());
            Arc::new(EpochGraph::new(
                Solved::Fixpoint(warm),
                Provenance::default(),
            ))
        };
        let (entered, entering) = std::sync::mpsc::channel();
        let (release, released) = std::sync::mpsc::channel::<()>();
        let held = Arc::clone(&busy);
        let holder = std::thread::spawn(move || {
            held.sealed.get_or_init(|| {
                entered.send(()).unwrap();
                released.recv().unwrap();
                let warm = held.warm.read().unwrap();
                Arc::new(warm.as_ref().unwrap().to_sealed())
            });
        });
        entering.recv().unwrap();
        s.sealer.hand_off(Arc::clone(&busy));
        let working =
            |slot: &mut Slot| slot.working.as_ref().is_some_and(|g| Arc::ptr_eq(g, &busy));
        let slot = s.sealer.shared.slot();
        drop(
            s.sealer
                .shared
                .changed
                .wait_while(slot, |slot| !working(slot)),
        );
        (release, holder)
    }

    /// An epoch that a newer one replaces before the sealer starts it is
    /// skipped: waiting for it returns at once, a query seals it on demand,
    /// and the sealer goes on to the newer one.
    #[test]
    fn a_replaced_epoch_is_skipped_and_seals_on_demand() {
        let (s, mut fs) = sample_session();
        s.snapshot();
        let skipped = || {
            (cla_obs::global())
                .counter("cla_serve_seals_skipped_total")
                .get()
        };
        let (release, holder) = hold_sealer(&s);
        let before = skipped();
        fs.add(
            "a.c",
            "int x, y; int *p, **pp; void fa(void) { p = &y; pp = &p; }",
        );
        s.reload(Some(&fs), false).unwrap();
        let replaced = Arc::clone(&s.state.read().unwrap().graph);
        fs.add("a.c", "int x, y; int *p, **pp; void fa(void) { pp = &p; }");
        s.reload(Some(&fs), false).unwrap();
        assert!(skipped() > before, "epoch 1 was not counted as skipped");
        s.sealer.wait_for(&replaced);
        assert!(!replaced.is_sealed(), "the sealer sealed a replaced epoch");
        let q = s.state.read().unwrap().db.targets("q")[0];
        assert_eq!(replaced.sealed().points_to(q).len(), 1);

        release.send(()).unwrap();
        holder.join().unwrap();
        let (sealed, epoch) = s.snapshot();
        assert_eq!(epoch, 2);
        assert!(sealed.points_to(q).is_empty());
        assert!(s.stats().sealed);
    }

    /// Dropping a session whose newest epoch still waits in the sealer's
    /// slot waits for that epoch to be sealed and saved.
    #[test]
    fn a_dropped_session_saves_the_epoch_its_sealer_had_not_reached() {
        let dir = std::env::temp_dir().join(format!("cla-serve-drop-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut fs = memfs(&[("a.c", "int x, y; int *p; void fa(void) { p = &x; }")]);
        let opts = (PpOptions::default(), LowerOptions::default());
        let s = Session::from_files_jobs(
            &fs,
            &["a.c"],
            &opts.0,
            &opts.1,
            SolveOptions::default(),
            Some(&dir),
            1,
        )
        .unwrap();
        s.snapshot();
        let (release, holder) = hold_sealer(&s);
        fs.add("a.c", "int x, y; int *p; void fa(void) { p = &y; }");
        s.reload(Some(&fs), false).unwrap();
        let last = s.state.read().unwrap().graph.prov.clone();
        std::thread::scope(|scope| {
            let dropped = scope.spawn(move || drop(s));
            release.send(()).unwrap();
            dropped.join().unwrap();
        });
        holder.join().unwrap();
        let saved = cla_snap::Snapshot::open(&dir.join(cla_snap::SNAPSHOT_FILE)).unwrap();
        assert_eq!(
            saved.provenance(),
            &last,
            "the last epoch is not the one on disk"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `queries` is the sum of the per-command counts under a mixed load,
    /// and `snapshot_loaded` says where the serving epoch's graph came
    /// from: the store after a warm open, the solver after a reload.
    #[test]
    fn stats_sum_the_commands_and_say_where_the_graph_came_from() {
        let dir = std::env::temp_dir().join(format!("cla-serve-stats-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (cold, mut fs) = sample_session();
        drop(cold);
        let open = |fs: &MemoryFs| {
            let (pp, lower) = (PpOptions::default(), LowerOptions::default());
            let opts = SolveOptions::default();
            Session::from_files_jobs(fs, &["a.c", "b.c"], &pp, &lower, opts, Some(&dir), 1).unwrap()
        };
        let cold = open(&fs);
        assert!(!cold.snapshot_loaded() && !cold.stats().snapshot_loaded);
        drop(cold);
        let s = open(&fs);
        assert!(s.snapshot_loaded() && s.stats().snapshot_loaded);

        std::thread::scope(|scope| {
            for t in 0..4 {
                let s = &s;
                scope.spawn(move || {
                    for i in 0..25 {
                        match (t + i) % 3 {
                            0 => drop(s.points_to("q").unwrap()),
                            1 => drop(s.alias("p", "q").unwrap()),
                            _ => drop(s.depend("x", &[]).unwrap()),
                        }
                    }
                });
            }
        });
        let st = s.stats();
        assert_eq!(st.queries, 100);
        assert_eq!(st.queries, st.cmd_points_to + st.cmd_alias + st.cmd_depend);
        assert!(st.cmd_points_to > 0 && st.cmd_alias > 0 && st.cmd_depend > 0);

        fs.add(
            "a.c",
            "int x, y; int *p, **pp; void fa(void) { p = &y; pp = &p; }",
        );
        assert!(s.reload(Some(&fs), false).unwrap().relinked);
        assert!(!s.snapshot_loaded() && !s.stats().snapshot_loaded);
        drop(s);
        let _ = std::fs::remove_dir_all(&dir);
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
