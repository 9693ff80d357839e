//! One epoch of a session: the state derived from one linked program, its
//! graph, and the sealer thread that seals it.
//!
//! [`Loaded`] is what a build or reload swaps in wholesale: the database,
//! the graph, the dependence flow index and the result cache. Its graph,
//! an [`EpochGraph`], comes from the pipeline's one route from a linked
//! program to its solved graph ([`load_or_fixpoint`]): sealed already when
//! the snapshot store held it, at fixpoint otherwise. An epoch at fixpoint
//! answers by one walk per object asked until it is sealed, by the
//! session's [`Sealer`] or by a query that needs the whole relation.

use crate::session::{DependentLine, Target};
use cla_cladb::{Database, DbError};
use cla_core::pipeline::{load_or_fixpoint, Built, Provenance, Report, SnapshotHook, Solved};
use cla_core::{sets_intersect, SealedGraph, Warm};
use cla_depend::FlowIndex;
use cla_ir::ObjId;
use cla_obs::Counter;
use cla_snap::SnapshotStore;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard};
use std::thread::JoinHandle;

/// How many finished query results the session retains.
const RESULT_CACHE_CAP: usize = 1024;

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum QueryKey {
    PointsTo(String),
    Depend {
        target: String,
        /// Joined by U+001F.
        non_targets: String,
    },
}

pub(crate) enum CachedAnswer {
    Pts {
        resolved: usize,
        targets: Arc<Vec<Target>>,
    },
    Depend(Arc<Vec<DependentLine>>),
}

pub(crate) struct CacheEntry {
    val: CachedAnswer,
    last_used: AtomicU64,
}

/// Everything derived from one linked program; swapped wholesale on reload.
///
/// The graph is immutable and `Sync` once solved: queries read it under the
/// session's read lock, and the dependence analysis traverses the sealed
/// form in place (no materialized `PointsTo`).
pub(crate) struct Loaded {
    pub(crate) db: Database,
    pub(crate) graph: Arc<EpochGraph>,
    /// The dependence flow index of `(db, graph.sealed())`: built by the epoch's
    /// first `depend` (concurrent ones wait for that one build), dropped
    /// with the epoch, never persisted. A build failure — a damaged block
    /// — is as permanent as the bytes, so it is kept and handed to every
    /// later `depend` of the epoch.
    pub(crate) flow: OnceLock<Result<FlowIndex, DbError>>,
    pub(crate) results: RwLock<HashMap<QueryKey, CacheEntry>>,
    /// How the program was built. Its `quarantined` ledger (lenient
    /// sessions only) is swapped with the state, so it always describes
    /// the snapshot answering queries.
    pub(crate) report: Report,
}

impl Loaded {
    /// The state a build or reload swaps in for `built`: its graph by the
    /// pipeline's one route, the sealed graph the snapshot store saved
    /// under exactly its provenance or else its program solved to
    /// fixpoint, for the sealer to seal and save.
    pub(crate) fn new(built: Built, store: Option<&SnapshotStore>) -> Loaded {
        // Covers the solve (with its per-pass spans), or the load.
        let _sp = cla_obs::global().span("serve", "serve.load");
        let hook = store.map(|s| s as &dyn SnapshotHook);
        let solved = load_or_fixpoint(&built.database, hook, &built.provenance, None);
        Loaded {
            db: built.database,
            graph: Arc::new(EpochGraph::new(solved, built.provenance)),
            flow: OnceLock::new(),
            results: RwLock::new(HashMap::new()),
            report: built.report,
        }
    }

    pub(crate) fn flow_size(&self) -> Option<(usize, usize)> {
        let index = self.flow.get()?.as_ref().ok()?;
        Some((index.edges(), index.bytes()))
    }

    /// The finished answer to `key`, if the epoch holds one; `tick` dates
    /// its use.
    pub(crate) fn cache_get(&self, key: &QueryKey, tick: &AtomicU64) -> Option<CachedAnswer> {
        let map = self.results.read().unwrap();
        let entry = map.get(key)?;
        entry.last_used.store(tick.fetch_add(1, Relaxed), Relaxed);
        Some(match &entry.val {
            CachedAnswer::Pts { resolved, targets } => CachedAnswer::Pts {
                resolved: *resolved,
                targets: Arc::clone(targets),
            },
            CachedAnswer::Depend(d) => CachedAnswer::Depend(Arc::clone(d)),
        })
    }

    pub(crate) fn cache_put(&self, key: QueryKey, val: CachedAnswer, tick: &AtomicU64) {
        let mut map = self.results.write().unwrap();
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
                last_used: AtomicU64::new(tick.fetch_add(1, Relaxed)),
            },
        );
    }
}

/// One epoch's graph: the fixpoint's [`Warm`] until the epoch is sealed,
/// then the sealed graph alone. The session state, the sealer and any
/// [`crate::Session::snapshot`] caller share it, and whichever of them asks
/// [`EpochGraph::sealed`] first seals it.
pub(crate) struct EpochGraph {
    /// `Some` until `sealed` is filled: the seal drops it.
    pub(crate) warm: RwLock<Option<Warm>>,
    pub(crate) sealed: OnceLock<Arc<SealedGraph>>,
    /// Whether the graph came from the snapshot store rather than a
    /// solver run.
    pub(crate) loaded: bool,
    /// The provenance the graph was loaded or solved under: what the sealer
    /// saves it under and what `stats` reports, without reading the file.
    pub(crate) prov: Provenance,
    /// The session epoch serving it, for the `serve.seal` span.
    pub(crate) epoch: AtomicU64,
}

/// What answers a query at the moment it runs.
pub(crate) enum Reader<'g> {
    Sealed(&'g SealedGraph),
    /// The frozen graph, held (`Some`) until the query is done: a walk per
    /// object asked.
    Demand(RwLockReadGuard<'g, Option<Warm>>),
}

impl Reader<'_> {
    /// The points-to set of `o`, as sorted object ids.
    pub(crate) fn points_to(&self, o: ObjId) -> Cow<'_, [ObjId]> {
        match self {
            Reader::Sealed(sealed) => Cow::Borrowed(sealed.points_to(o)),
            Reader::Demand(warm) => Cow::Owned(warm.as_ref().expect(HELD).lvals_of(o)),
        }
    }

    pub(crate) fn may_alias(&self, a: ObjId, b: ObjId) -> bool {
        match self {
            Reader::Sealed(sealed) => sealed.may_alias(a, b),
            Reader::Demand(_) => sets_intersect(&self.points_to(a), &self.points_to(b)),
        }
    }
}

const HELD: &str = "the warm graph is held until the epoch is sealed";
const NO_PANIC: &str = "no thread panics holding an epoch's warm graph";

impl EpochGraph {
    /// An epoch's graph as the pipeline's one route found it: the sealed
    /// graph the snapshot store held, or the program at fixpoint, to be
    /// sealed.
    pub(crate) fn new(solved: Solved, prov: Provenance) -> EpochGraph {
        let (warm, sealed, loaded) = match solved {
            Solved::Loaded(sealed) => (None, OnceLock::from(Arc::new(sealed)), true),
            Solved::Fixpoint(warm) => (Some(warm), OnceLock::new(), false),
        };
        EpochGraph {
            warm: RwLock::new(warm),
            sealed,
            loaded,
            prov,
            epoch: AtomicU64::new(0),
        }
    }

    pub(crate) fn is_sealed(&self) -> bool {
        self.sealed.get().is_some()
    }

    /// The sealed graph: sealed here by the first thread to ask, while any
    /// other waits for it. The warm graph is dropped with the seal.
    pub(crate) fn sealed(&self) -> &Arc<SealedGraph> {
        self.sealed.get_or_init(|| {
            let sealed = self
                .warm
                .read()
                .expect(NO_PANIC)
                .as_ref()
                .expect(HELD)
                .to_sealed();
            // A reader that finds neither form waits for this seal above.
            *self.warm.write().expect(NO_PANIC) = None;
            Arc::new(sealed)
        })
    }

    /// The sealed graph once there is one, else the frozen graph.
    pub(crate) fn reader(&self) -> Reader<'_> {
        if let Some(sealed) = self.sealed.get() {
            return Reader::Sealed(sealed);
        }
        let warm = self.warm.read().expect(NO_PANIC);
        if warm.is_some() {
            return Reader::Demand(warm);
        }
        drop(warm);
        Reader::Sealed(self.sealed())
    }
}

/// The session's one sealer: a thread that seals the newest epoch handed to
/// it and then saves its snapshot. Its slot is one deep, so an epoch that a
/// newer one replaces before it is started is never sealed here (a query
/// may still seal it), and saves happen in epoch order: the snapshot on
/// disk is never older than one saved before it. Dropping the sealer
/// finishes the newest epoch first, so the last epoch is the one on disk.
pub(crate) struct Sealer {
    pub(crate) shared: Arc<SealerShared>,
    thread: Option<JoinHandle<()>>,
    /// `cla_serve_seals_skipped_total`: epochs replaced in the slot.
    skipped: Counter,
}

#[derive(Default)]
pub(crate) struct SealerShared {
    slot: Mutex<Slot>,
    /// Signalled when the slot changes.
    pub(crate) changed: Condvar,
}

#[derive(Default)]
pub(crate) struct Slot {
    /// The newest epoch handed off and not yet started.
    latest: Option<Arc<EpochGraph>>,
    /// The epoch being sealed and saved.
    pub(crate) working: Option<Arc<EpochGraph>>,
    /// The session is going: finish `latest` when there is a store, then
    /// stop.
    closing: bool,
}

impl SealerShared {
    /// The slot. Every update of it is one assignment, so a guard a panic
    /// poisoned holds a valid slot.
    pub(crate) fn slot(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Empties the slot when the sealer thread ends, by a panic too, so no one
/// waits for an epoch it will never finish.
struct Stopped<'a>(&'a SealerShared);

impl Drop for Stopped<'_> {
    fn drop(&mut self) {
        let mut slot = self.0.slot();
        (slot.latest, slot.working, slot.closing) = (None, None, true);
        self.0.changed.notify_all();
    }
}

impl Sealer {
    /// Starts the thread. `on_disk` is the provenance of the graph the
    /// store holds, when the session started from it.
    pub(crate) fn spawn(store: Option<Arc<SnapshotStore>>, on_disk: Option<Provenance>) -> Sealer {
        let shared = Arc::new(SealerShared::default());
        let thread = std::thread::Builder::new()
            .name("cla-sealer".into())
            .spawn({
                let shared = Arc::clone(&shared);
                move || seal_newest(&shared, store.as_deref(), on_disk)
            })
            .expect("the session's sealer thread starts");
        Sealer {
            shared,
            thread: Some(thread),
            skipped: cla_obs::global().counter("cla_serve_seals_skipped_total"),
        }
    }

    /// Hands `graph` to the sealer, in place of an epoch it has not started.
    pub(crate) fn hand_off(&self, graph: Arc<EpochGraph>) {
        let mut slot = self.shared.slot();
        if slot.closing {
            return;
        }
        if slot.latest.replace(graph).is_some() {
            self.skipped.inc();
        }
        self.shared.changed.notify_all();
    }

    /// Waits while the sealer holds `graph`: at once when it never will,
    /// because a newer epoch replaced it first or the thread has stopped.
    pub(crate) fn wait_for(&self, graph: &Arc<EpochGraph>) {
        let holds = |slot: &mut Slot| {
            [&slot.latest, &slot.working]
                .into_iter()
                .any(|held| held.as_ref().is_some_and(|g| Arc::ptr_eq(g, graph)))
        };
        let slot = self.shared.slot();
        drop(self.shared.changed.wait_while(slot, holds));
    }
}

impl Drop for Sealer {
    fn drop(&mut self) {
        self.shared.slot().closing = true;
        self.shared.changed.notify_all();
        if let Some(thread) = self.thread.take() {
            // A sealer that panicked has said so on stderr; a drop must not
            // panic again.
            let _ = thread.join();
        }
    }
}

/// The sealer thread: seals the newest epoch and saves it unless the store
/// holds its graph already, until the session closes.
fn seal_newest(
    shared: &SealerShared,
    store: Option<&SnapshotStore>,
    mut on_disk: Option<Provenance>,
) {
    let _stopped = Stopped(shared);
    loop {
        let graph = {
            let mut slot = shared.slot();
            loop {
                if slot.closing && store.is_none() {
                    return;
                }
                if let Some(graph) = slot.latest.take() {
                    slot.working = Some(Arc::clone(&graph));
                    shared.changed.notify_all();
                    break graph;
                }
                if slot.closing {
                    return;
                }
                slot = (shared.changed.wait(slot)).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let mut sp = cla_obs::global().span("serve", "serve.seal");
        sp.set("epoch", graph.epoch.load(Relaxed));
        let sealed = graph.sealed();
        let mut saved = false;
        if let Some(store) = store.filter(|_| on_disk.as_ref() != Some(&graph.prov)) {
            let before = store.counters().1;
            store.save(&graph.prov, sealed);
            saved = store.counters().1 > before;
            on_disk = saved.then(|| graph.prov.clone());
        }
        sp.set("saved", saved);
        drop(sp);
        shared.slot().working = None;
        shared.changed.notify_all();
    }
}
