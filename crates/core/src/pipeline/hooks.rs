//! The store contract: what [`analyze_with`](super::analyze_with) asks a
//! compile cache and a snapshot store, and the keys it asks under.

use super::Closure;
use crate::pretransitive::{SealedGraph, SolveOptions, Warm};
use cla_cfront::{PpOptions, Preprocessed};
use cla_cladb::{xxh64, Database};
use cla_ir::LowerOptions;

/// A persistent compile cache, in two levels: file →
/// [`Manifest`](super::Manifest) (the closure the file was last built from),
/// and closure key → serialized object file.
/// [`analyze_with`](super::analyze_with) consults it before compiling each file
/// and feeds it after each miss, so compiles skip across process restarts (the
/// on-disk implementation lives in `cla-snap`). A file whose manifest still
/// holds is keyed without being preprocessed; without manifests (the default
/// methods) every file is preprocessed to find its key. Implementations must
/// tolerate concurrent use — the pipeline calls them from its compile thread
/// pool.
pub trait CompileCache: Send + Sync {
    /// The object bytes previously stored under `key`, if any. Returning
    /// damaged bytes is safe: the pipeline admits them only through
    /// [`UnitObject::verify`](cla_cladb::UnitObject::verify) and falls back to
    /// a fresh compile on any error.
    fn load(&self, key: u64) -> Option<Vec<u8>>;
    /// The object stored under `key` stood behind a run's answer without being
    /// read: [`analyze_with`](super::analyze_with) answered from the program a
    /// previous run linked from it. For the implementation's recency and
    /// accounting (an absent object built nothing and counts nothing); nothing
    /// to do by default.
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
    /// The manifest bytes stored under `key`
    /// ([`manifest_key`](super::manifest_key)), if any. Like objects, they are
    /// admitted only through a check
    /// ([`Manifest::decode`](super::Manifest::decode)); unlike objects, reading
    /// one is not a cache hit or miss.
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

/// Short-circuits the link and solve phases of
/// [`analyze_with`](super::analyze_with) with persisted results (the on-disk
/// snapshot store lives in `cla-snap`).
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

/// What [`load_or_fixpoint`] found for a linked program.
pub enum Solved {
    /// The sealed graph the snapshot hook holds under exactly the
    /// provenance asked for.
    Loaded(SealedGraph),
    /// The program solved to fixpoint: neither sealed nor saved.
    Fixpoint(Warm),
}

/// The one route from a linked database to its solved graph, shared by
/// [`analyze_with`](super::analyze_with) and the serve sessions: the graph
/// `snapshots` holds under exactly `prov`, else `db` solved to fixpoint with
/// `prov.solver`. The rest is the caller's: a batch run seals and saves the
/// fixpoint in line, a session hands it to its sealer. `asked` is the hook's
/// answer for `prov` when the caller has asked it already; `None` asks it here.
pub fn load_or_fixpoint(
    db: &Database,
    snapshots: Option<&dyn SnapshotHook>,
    prov: &Provenance,
    asked: Option<Option<SealedGraph>>,
) -> Solved {
    match asked.unwrap_or_else(|| snapshots.and_then(|hook| hook.load(prov))) {
        Some(sealed) => Solved::Loaded(sealed),
        None => Solved::Fixpoint(Warm::from_database(db, prov.solver)),
    }
}

/// Optional persistence hooks for [`analyze_with`](super::analyze_with). The
/// default (no hooks) makes `analyze_with` behave exactly like
/// [`analyze`](super::analyze).
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
