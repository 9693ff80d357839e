//! Where a session's program comes from: the spec a session is opened
//! from, the build it keeps over its sources or the linked object it
//! reads, and the provenance its graph is saved under.

use crate::epoch::Loaded;
use crate::session::{Session, SessionError};
use cla_cfront::{FileProvider, PpOptions};
use cla_cladb::{xxh64, Database, DbError};
use cla_core::pipeline::{
    AnalyzeHooks, Build, Built, PipelineError, PipelineOptions, Provenance, Report,
};
use cla_core::SolveOptions;
use cla_ir::LowerOptions;
use cla_snap::SnapshotStore;
use std::path::{Path, PathBuf};
use std::sync::Arc;

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

/// What a `reload` re-reads, fixed at session construction.
pub(crate) enum ReloadInputs {
    /// No reload (opened straight from in-memory bytes).
    None,
    /// C sources: the session's build, linked again on every reload.
    /// Boxed: a `Build` dwarfs the other variants.
    Files(Box<Build>),
    /// A linked `.clao` on disk: re-read, re-open, re-solve.
    Object { path: PathBuf, hash: u64 },
}

/// Links the program `fs` holds now through a session's `build` (`None`
/// when it is the one linked last), keyed by [`object_provenance`] of the
/// bytes it linked, tagged with the name the program was linked under.
pub(crate) fn link(
    build: &mut Build,
    fs: &dyn FileProvider,
    solve: SolveOptions,
    force: bool,
) -> Result<Option<Built>, SessionError> {
    let built = build.link(fs, &AnalyzeHooks::default(), force);
    let built = built.map_err(|e| match e {
        PipelineError::Frontend(e) => SessionError::Compile(e),
        PipelineError::Db(e) => SessionError::Db(e),
    })?;
    Ok(built.map(|built| {
        let db = &built.database;
        let provenance = object_provenance(db.unit_name(), db.content_hash(), solve);
        Built {
            provenance,
            ..built
        }
    }))
}

/// A program opened from bytes: nothing compiled, nothing quarantined.
fn opened(database: Database, provenance: Provenance) -> Built {
    Built {
        database,
        report: Report {
            program_loaded: true,
            ..Report::default()
        },
        provenance,
        graph: None,
        recompiled: Vec::new(),
    }
}

/// Reads, opens, and fully verifies a `.clao` file: the program, and its
/// [`content_hash`](Database::content_hash), which keys it and its reload.
pub(crate) fn open_object(path: &Path, solve: SolveOptions) -> Result<(Built, u64), SessionError> {
    let bytes = std::fs::read(path)
        .map_err(|e| SessionError::Db(DbError::Io(format!("{}: {e}", path.display()))))?;
    // Verify every block now: the solver demand-loads blocks mid-solve and
    // treats the database as already validated, so corruption must be
    // caught here, where it can become a typed error instead of a panic.
    // Once every checksum holds, the root of their tree names the bytes.
    let db = Database::admit(bytes).map_err(SessionError::Db)?;
    let hash = db.content_hash();
    let prov = object_provenance(&path.display().to_string(), hash, solve);
    Ok((opened(db, prov), hash))
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
fn open_store(dir: Option<&Path>) -> Result<Option<Arc<SnapshotStore>>, SessionError> {
    dir.map(|d| {
        SnapshotStore::open(d)
            .map(Arc::new)
            .map_err(|e| SessionError::Db(DbError::Io(format!("{}: {e}", d.display()))))
    })
    .transpose()
}

/// The constructors: each reads the program from its source, loads its
/// graph and hands the first epoch to `Session::build`.
impl Session {
    /// Builds the session `spec` describes: links its sources through a
    /// [`Build`] of its own (quarantining the ones that fail when
    /// `lenient`), or reads, opens and verifies its linked `.clao`, then
    /// solves to fixpoint — or, when the spec's snapshot directory holds a
    /// snapshot whose provenance matches the program, skips the solve and
    /// starts warm. It returns at fixpoint: the sealer seals the graph and
    /// saves its snapshot in the background. Either way the session can
    /// [`reload`](Session::reload) from the same source, which goes the
    /// same way.
    ///
    /// Sources build as a batch `analyze` does, through a
    /// [`Build`] — the pool, per-file compile and link tail — so the linked
    /// database is byte-identical at any `jobs`, a strict failure is always
    /// the one of the lowest input index, and a frontend panic is a typed
    /// error. A lenient session keeps an empty unit in a failed file's
    /// slot, lists it in [`Session::quarantined`], answers `partial: true`,
    /// and retries it on every reload (DESIGN.md §14). An object is
    /// verified whole up front: a session must never discover corruption
    /// mid-query.
    pub fn open(spec: &SessionSpec) -> Result<Session, SessionError> {
        let dir = spec.snapshot_dir.as_deref();
        match &spec.source {
            SessionSource::Files {
                fs,
                files,
                pp,
                lower,
                lenient,
            } => {
                let opts = PipelineOptions {
                    pp: pp.clone(),
                    lower: lower.clone(),
                    solver: spec.solve,
                    parallel_compile: true,
                    jobs: spec.jobs,
                    strict: !lenient,
                    unknown_summaries: false,
                };
                Session::from_build(fs.as_ref(), files.clone(), opts, dir)
            }
            SessionSource::Object { path } => {
                let store = open_store(dir)?;
                let (built, hash) = open_object(path, spec.solve)?;
                let loaded = Loaded::new(built, store.as_deref());
                let inputs = ReloadInputs::Object {
                    path: path.clone(),
                    hash,
                };
                let session = Session::build(loaded, spec.solve, inputs, store);
                Ok(session)
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
        let opts = PipelineOptions {
            pp: pp.clone(),
            lower: lower.clone(),
            solver: opts,
            parallel_compile: true,
            jobs,
            ..PipelineOptions::default()
        };
        Session::from_build(fs, files, opts, snapshot_dir)
    }

    /// Opens a session over an already linked program database, in memory:
    /// [`Session::reload`] is unavailable (there is nothing to re-read).
    pub fn from_database(db: Database, opts: SolveOptions) -> Session {
        let prov = Provenance {
            solver: opts,
            ..Provenance::default()
        };
        let loaded = Loaded::new(opened(db, prov), None);
        Session::build(loaded, opts, ReloadInputs::None, None)
    }

    /// The first link of a session's build of `files`, its graph loaded
    /// from or saved to `dir`.
    fn from_build(
        fs: &dyn FileProvider,
        files: Vec<String>,
        opts: PipelineOptions,
        dir: Option<&Path>,
    ) -> Result<Session, SessionError> {
        let store = open_store(dir)?;
        let solve = opts.solver;
        let mut build = Box::new(Build::new(files, opts, true));
        let built = link(&mut build, fs, solve, false)?;
        let loaded = Loaded::new(built.expect("a first build links"), store.as_deref());
        Ok(Session::build(
            loaded,
            solve,
            ReloadInputs::Files(build),
            store,
        ))
    }
}
