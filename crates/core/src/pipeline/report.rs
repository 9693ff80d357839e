//! What one run measured.

use super::Quarantined;
use crate::pretransitive::SolveStats;
use cla_cladb::{LinkStats, LinkTimes, LoadStats};
use cla_ir::AssignCounts;
use std::time::Duration;

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
    /// `Database::open` of the assembled program object, or the admission of
    /// the stored one ([`Database::admit`](cla_cladb::Database::admit)) when
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
    /// linked from the same inputs (see [`analyze_with`](super::analyze_with)).
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
    /// [`PipelineOptions::unknown_summaries`](super::PipelineOptions::unknown_summaries)
    /// on).
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
