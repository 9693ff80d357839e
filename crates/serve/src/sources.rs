//! Where a session's program comes from: the spec a session is opened
//! from, the sources it compiles and links (and recompiles on reload), or
//! the linked object it reads, and the provenance its graph is saved under.

use crate::epoch::Loaded;
use crate::session::{Session, SessionError};
use cla_cfront::{FileProvider, PpOptions};
use cla_cladb::{xxh64, Database, DbError, ObjectLinker, UnitObject};
use cla_core::pipeline::{
    compile_all, compile_one_keyed, open_linked, options_fingerprint, Closure, Provenance,
    Quarantined, SourceProbe,
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

/// The program name every session links under (and tags its snapshot
/// provenance with).
const PROGRAM: &str = "a.out";

/// Compilation inputs retained for incremental reload.
pub(crate) struct Sources {
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
pub(crate) struct Recompiled {
    /// Files that compiled, in input order.
    pub(crate) recompiled: Vec<String>,
    /// Files that did not (lenient sessions only), in input order.
    pub(crate) ledger: Vec<Quarantined>,
    /// False when the table links to the byte-identical program as before.
    pub(crate) changed: bool,
}

impl Sources {
    /// Inputs none of whose files has compiled yet.
    pub(crate) fn new(
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
    pub(crate) fn recompile(
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
            |f| compile_one_keyed(fs, f, &self.pp, &self.lower, options_fp, None, None),
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
    /// session swaps in, with `ledger` as its quarantine.
    pub(crate) fn link(
        &self,
        ledger: Vec<Quarantined>,
        store: Option<&SnapshotStore>,
        solver: SolveOptions,
    ) -> Result<Loaded, SessionError> {
        let mut linker = ObjectLinker::new(PROGRAM);
        for (unit, _) in &self.table {
            linker.add(unit);
        }
        let db = open_linked(linker, false).map_err(SessionError::Db)?.db;
        let prov = object_provenance(PROGRAM, db.content_hash(), solver);
        Ok(Loaded::new(db, store, prov, ledger))
    }
}

/// What a `reload` re-reads, fixed at session construction.
pub(crate) enum ReloadInputs {
    /// No reload (opened straight from in-memory bytes).
    None,
    /// C sources: recompile changed files, relink, re-solve.
    /// Boxed: `Sources` dwarfs the other variants.
    Files(Box<Sources>),
    /// A linked `.clao` on disk: re-read, re-open, re-solve.
    Object { path: PathBuf, hash: u64 },
}

/// Reads, opens, and fully verifies a `.clao` file; returns the database
/// plus its [`content_hash`](Database::content_hash), used for reload
/// change detection and snapshot provenance.
pub(crate) fn open_object_path(path: &Path) -> Result<(Database, u64), SessionError> {
    let bytes = std::fs::read(path)
        .map_err(|e| SessionError::Db(DbError::Io(format!("{}: {e}", path.display()))))?;
    // Verify every block now: the solver demand-loads blocks mid-solve and
    // treats the database as already validated, so corruption must be
    // caught here, where it can become a typed error instead of a panic.
    // Once every checksum holds, the root of their tree names the bytes.
    let db = Database::admit(bytes).map_err(SessionError::Db)?;
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
    /// Builds the session `spec` describes: compiles and links its sources
    /// (quarantining the ones that fail when `lenient`) or reads, opens and
    /// verifies its linked `.clao`, then solves to fixpoint — or, when the
    /// spec's snapshot directory holds a snapshot whose provenance matches
    /// the linked program, skips the solve and starts warm. It returns at
    /// fixpoint: the sealer seals the graph and saves its snapshot in the
    /// background. Either way the session can [`reload`](Session::reload)
    /// from the same source, which goes the same way.
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
                let loaded = Loaded::new(db, store.as_deref(), prov, Vec::new());
                let inputs = ReloadInputs::Object {
                    path: path.clone(),
                    hash,
                };
                Ok(Session::build(loaded, spec.solve, inputs, store))
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
        Session::build(
            Loaded::new(db, None, prov, Vec::new()),
            opts,
            ReloadInputs::None,
            None,
        )
    }

    /// The first build of `sources` is a reload with every file stale.
    fn compile(
        fs: &dyn FileProvider,
        mut sources: Sources,
        opts: SolveOptions,
        store: Option<Arc<SnapshotStore>>,
    ) -> Result<Session, SessionError> {
        let ledger = sources.recompile(fs, true)?.ledger;
        let loaded = sources.link(ledger, store.as_deref(), opts)?;
        let inputs = ReloadInputs::Files(Box::new(sources));
        Ok(Session::build(loaded, opts, inputs, store))
    }
}
