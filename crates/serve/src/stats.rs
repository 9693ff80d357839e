//! What a session counts and reports: the per-query meter, the latency
//! window, the slow-query log, and the `stats` snapshot with its wire form.

use crate::epoch::Reader;
use crate::json::{obj, Value};
use crate::session::Session;
use cla_cladb::xxh64;
use cla_core::pipeline::Provenance;
use cla_core::SolveStats;
use cla_obs::{Counter, Gauge, Histogram, LATENCY_BUCKETS_US};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How many recent latency samples feed the p50/p90/p99 figures.
pub(crate) const LATENCY_WINDOW: usize = 4096;

/// How many slow queries the log retains (oldest dropped first).
const SLOW_LOG_CAP: usize = 128;

/// Slow-query threshold: queries at or above this latency are logged.
pub const DEFAULT_SLOW_THRESHOLD_US: u64 = 10_000;

/// How many per-span allocation rows the stats wire form carries (the
/// heaviest spans by cumulative bytes; the full table stays in-process).
const ALLOC_SPANS_IN_STATS: usize = 8;

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
    /// Queries answered (points-to + alias + depend), including cache hits:
    /// the sum of the three per-command counts.
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
    /// at seal time; `stats` seals the epoch to read them).
    pub solver: SolveStats,
    /// Whether the serving epoch had been sealed — by the sealer, by a
    /// query, or by loading it from the snapshot store — when `stats` was
    /// asked. `false` means the epoch was still answering from its frozen
    /// graph, and its snapshot was not saved yet.
    pub sealed: bool,
    /// How the serving epoch was built, in `pipeline::Report`'s terms: cache
    /// hits, and whether the program was opened from disk, not linked.
    pub compile_cache_hits: u64,
    pub program_loaded: bool,
    /// Whether the currently served graph was loaded from a persisted
    /// snapshot instead of being solved (cold starts and reloads both).
    pub snapshot_loaded: bool,
    /// Snapshot loads / saves / provenance-or-decode mismatches since this
    /// session attached its snapshot store (all 0 without one).
    pub snapshot_loads: u64,
    pub snapshot_saves: u64,
    pub snapshot_mismatches: u64,
    /// Human-readable provenance the served graph was loaded or saved
    /// under (`None` when the session has no snapshot store).
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
            ("sealed", self.sealed.into()),
            ("compile_cache_hits", self.compile_cache_hits.into()),
            ("program_loaded", self.program_loaded.into()),
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

/// Which query command an operation was, for per-command accounting.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Cmd {
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

/// A session's query accounting: per-command counts and latency
/// histograms, the result cache's hits and misses, the recent latency
/// window and the slow-query log. `stats` reads it.
pub(crate) struct Meter {
    pub(crate) cmd_points_to: AtomicU64,
    pub(crate) cmd_alias: AtomicU64,
    pub(crate) cmd_depend: AtomicU64,
    pub(crate) cmd_stats: AtomicU64,
    pub(crate) cmd_reload: AtomicU64,
    pub(crate) hits: AtomicU64,
    pub(crate) misses: AtomicU64,
    pub(crate) reloads: AtomicU64,
    pub(crate) latencies: LatencyRing,
    pub(crate) slow_count: AtomicU64,
    slow_log: Mutex<VecDeque<SlowQuery>>,
    /// Depth of the slow-query log, exported through the Prometheus
    /// exposition (`cla_serve_slow_log_depth`).
    gauge_slow_log_depth: Gauge,
    /// Per-command latency histograms, shared with the global metric
    /// registry (`cla_serve_latency_us{cmd=...}`); handles cached here so
    /// the query path never takes the registry lock.
    hist_points_to: Histogram,
    hist_alias: Histogram,
    hist_depend: Histogram,
    /// `cla_serve_demand_answers_total`: queries answered from a frozen
    /// graph, before its epoch was sealed.
    ctr_demand: Counter,
}

impl Meter {
    pub(crate) fn new() -> Meter {
        let obs = cla_obs::global();
        let hist = |cmd: &str| {
            obs.histogram_with("cla_serve_latency_us", &[("cmd", cmd)], LATENCY_BUCKETS_US)
        };
        Meter {
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
            hist_points_to: hist("points-to"),
            hist_alias: hist("alias"),
            hist_depend: hist("depend"),
            ctr_demand: obs.counter("cla_serve_demand_answers_total"),
        }
    }

    /// Counts a query `graph` answered before its epoch was sealed.
    pub(crate) fn count_demand(&self, graph: &Reader<'_>) {
        if let Reader::Demand(_) = graph {
            self.ctr_demand.inc();
        }
    }

    /// Records one finished query, answered at `epoch`, and, for a command that consults the
    /// result cache, whether it hit; returns its latency in microseconds.
    pub(crate) fn done(
        &self,
        t0: Instant,
        hit: Option<bool>,
        cmd: Cmd,
        detail: &str,
        epoch: u64,
    ) -> u64 {
        let micros = t0.elapsed().as_micros() as u64;
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
                epoch,
            });
            self.gauge_slow_log_depth.set(log.len() as u64);
        }
        micros
    }

    /// The most recent slow queries, oldest first. The log is bounded (128
    /// entries); older entries are dropped.
    pub(crate) fn slow_queries(&self) -> Vec<SlowQuery> {
        self.slow_log.lock().unwrap().iter().cloned().collect()
    }
}

/// A fixed-capacity, lock-free ring of recent latency samples.
///
/// `record` overwrites the oldest slot; the buffer never grows, so the
/// p50/p99 figures always describe the most recent window and a server that
/// has answered 100 million queries holds exactly as many samples as one
/// that answered 4096.
pub(crate) struct LatencyRing {
    slots: Box<[AtomicU64]>,
    /// Total samples ever recorded; `% slots.len()` is the write cursor.
    written: AtomicU64,
}

impl LatencyRing {
    pub(crate) fn new(capacity: usize) -> LatencyRing {
        LatencyRing {
            slots: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            written: AtomicU64::new(0),
        }
    }

    pub(crate) fn record(&self, micros: u64) {
        let at = self.written.fetch_add(1, Relaxed) as usize % self.slots.len();
        self.slots[at].store(micros, Relaxed);
    }

    /// The currently populated window (unordered).
    pub(crate) fn snapshot(&self) -> Vec<u64> {
        let filled = (self.written.load(Relaxed) as usize).min(self.slots.len());
        self.slots[..filled]
            .iter()
            .map(|s| s.load(Relaxed))
            .collect()
    }

    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }
}

/// The one-line form of a provenance `stats` reports.
pub(crate) fn summary(p: &Provenance) -> String {
    format!(
        "{} input(s), inputs_hash={:016x}, cache={}, cycle_elim={}",
        p.inputs.len(),
        xxh64(format!("{:?}", p.inputs).as_bytes(), 0),
        p.solver.cache,
        p.solver.cycle_elim,
    )
}

/// The live profiler the wire `profile` command drives.
impl Session {
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
