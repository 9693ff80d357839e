//! The pre-transitive graph algorithm for Andersen's analysis (paper §5,
//! Figure 5).
//!
//! The constraint graph is *never* transitively closed. An edge `n_x → n_y`
//! means `pts(x) ⊇ pts(y)`; the points-to set of `x` (`getLvals`) is the
//! union of `baseElements` over all nodes reachable from `n_x`. The
//! algorithm iterates over the complex assignments, adding edges derived
//! from current `getLvals` results, until a pass adds nothing.
//!
//! Two optimizations make this practical (the paper measures a >50,000×
//! slowdown with both off):
//!
//! * **Reachability caching** — `getLvals` results are cached for the
//!   duration of one pass; stale results are safe because any change that
//!   could make them stale also forces another pass.
//! * **Cycle elimination** — reachability is computed with an iterative
//!   Tarjan SCC walk; every strongly connected component discovered is
//!   collapsed into one node (the paper's `unifyNode` with skip pointers).
//!   Cycle detection is free during the traversal, and all cycles in the
//!   traversed region are found.
//!
//! The solver can run from a fully decoded [`CompiledUnit`], or directly
//! from a [`Database`] with CLA demand loading: an object's assignment block
//! is fetched only when its points-to set first becomes (potentially)
//! non-empty, and `x = y` / `x = &y` records are discarded immediately after
//! being integrated into the graph (the paper's load-and-throw-away
//! strategy); only complex assignments stay in core.
//!
//! The solved graph outlives the solve: at fixpoint [`Warm`] freezes the
//! [`GraphState`] into a [`Frozen`] graph that owns no database borrow and
//! drops the rest. Nothing can load a block or add an edge any more, so
//! what is left is reachability over a fixed graph, and one sweep
//! (`crate::sweep`) writes the relation out as shared [`LvalSet`]s, on
//! every core: into a [`PointsTo`] for batch use, or into a
//! [`SealedGraph`], the immutable form that servers keep resident and
//! snapshots persist.

use crate::solution::{sets_intersect, LvalSet, PointsTo, PointsToQuery};
use crate::sweep::{Frozen, Relation, SweepCounts, INLINE_BELOW};
use cla_cladb::Database;
use cla_ir::{AssignKind, CompiledUnit, FunSig, ObjId, ObjKind, ObjectInfo, PrimAssign};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::Arc;

/// Tuning knobs for the pre-transitive solver (the §5 ablation).
///
/// Equality matters: snapshot provenance (`cla-snap`) compares the options a
/// graph was solved with against the options a loader wants, and falls back
/// to a full solve on any difference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveOptions {
    /// Cache `getLvals` results across queries within one pass.
    pub cache: bool,
    /// Collapse strongly connected components during reachability.
    pub cycle_elim: bool,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            cache: true,
            cycle_elim: true,
        }
    }
}

/// Counters describing one solver run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SolveStats {
    /// Passes of the iteration algorithm (Figure 5's outer loop).
    pub passes: usize,
    /// Top-level `getLvals` invocations.
    pub getlvals_calls: u64,
    /// Nodes expanded during reachability traversals.
    pub dfs_visits: u64,
    /// Queries answered from the pass cache.
    pub cache_hits: u64,
    /// Node unifications performed by cycle elimination.
    pub unifications: u64,
    /// Edges inserted into the pre-transitive graph.
    pub edges_added: u64,
    /// `getLvals` results that reused an existing identical set (the
    /// paper's shared-lval-sets enhancement).
    pub sets_shared: u64,
    /// Complex assignments resident in memory at the end (Table 3
    /// "in core").
    pub complex_in_core: usize,
    /// Total graph nodes (objects + deref/split temporaries).
    pub nodes: usize,
    /// Rough live-memory estimate of solver structures, in bytes.
    pub approx_bytes: usize,
}

/// What the set algebra did, cumulative over a solve: carried as deltas by
/// the `solve.pass` / `solve.seal` / `solve.extract` spans and mirrored in
/// the `cla_solve_union_*_total` counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct UnionLedger {
    /// Calls of the union routine.
    pub(crate) unions: u64,
    /// Unions answered with a set that already existed.
    pub(crate) shared: u64,
    /// Elements of the operands other than the largest, tested against it.
    pub(crate) scanned: u64,
    /// Elements of the sets the unions wrote.
    pub(crate) written: u64,
    /// Sets newly entered into the store.
    pub(crate) distinct: u64,
}

impl std::ops::AddAssign for UnionLedger {
    fn add_assign(&mut self, other: UnionLedger) {
        self.unions += other.unions;
        self.shared += other.shared;
        self.scanned += other.scanned;
        self.written += other.written;
        self.distinct += other.distinct;
    }
}

impl UnionLedger {
    /// Records what happened since the ledger read `was`, on `sp` and in
    /// the registry's `cla_solve_union_{calls,shared,scanned,written,distinct}_total`.
    fn publish_since(self, was: UnionLedger, sp: &mut cla_obs::Span<'_>) {
        for (key, series, delta) in [
            ("unions", "calls", self.unions - was.unions),
            ("unions_shared", "shared", self.shared - was.shared),
            ("elements_scanned", "scanned", self.scanned - was.scanned),
            ("elements_written", "written", self.written - was.written),
            ("sets_distinct", "distinct", self.distinct - was.distinct),
        ] {
            sp.set(key, delta);
            let series = format!("cla_solve_union_{series}_total");
            cla_obs::global().counter(&series).add(delta);
        }
    }
}

/// The hash-consed store of lval sets and the one routine that joins them
/// (paper §5, enhancement three: "many lval sets are identical").
///
/// Every non-empty set the solver hands out during one epoch is entered
/// here exactly once, so within an epoch equal sets are one allocation and
/// pointer equality is set equality. [`LvalStore::union`] leans on that: it
/// never copies, sorts or hashes an operand, only what the result adds.
#[derive(Debug, Default)]
pub struct LvalStore {
    empty: LvalSet,
    /// The sets entered this epoch, by content hash; a set whose hash is
    /// taken by another sits under the next free key.
    sets: HashMap<u64, LvalSet>,
    /// Scratch: the elements a union adds to its largest part.
    extras: Vec<ObjId>,
    /// Scratch: `marks[id] == stamp` says `id` is in the running union.
    marks: Vec<u32>,
    stamp: u32,
    /// Results that reused an existing set ([`SolveStats::sets_shared`]).
    shared: u64,
    ledger: UnionLedger,
}

impl LvalStore {
    /// What the unions of this store did.
    pub(crate) fn ledger(&self) -> UnionLedger {
        self.ledger
    }

    /// The union of `parts` — sets this store handed out — and the unsorted,
    /// possibly repeating `raw` lvals, as the one shared set of that
    /// content. Reorders `parts`.
    ///
    /// A part equal to the result *is* the result: the largest part is
    /// returned as it stands when nothing else contributes, and written
    /// anew, once, only when something does.
    pub fn union(&mut self, parts: &mut [LvalSet], raw: &[ObjId]) -> LvalSet {
        parts.sort_unstable_by_key(Arc::as_ptr);
        let big = parts.iter().max_by_key(|p| p.len());
        let shared = self.shared;
        let set = match (self.union_sorted(big.map_or(&[], |b| b), parts, raw), big) {
            (Some(written), _) => self.intern(written),
            (None, Some(big)) if !big.is_empty() => {
                self.shared += 1;
                Arc::clone(big)
            }
            (None, _) => Arc::clone(&self.empty),
        };
        self.ledger.shared += self.shared - shared;
        set
    }

    /// `big ∪ parts ∪ raw` over sorted, deduplicated `big`, or `None` when
    /// that is `big` itself. One set is one address: `parts` come ordered
    /// by it, so repeats are neighbours, and `big` may be among them; `raw`
    /// may repeat. Work is bounded by the operands that are not `big`, by
    /// `big` only once they outweigh a sixteenth of it, and by the result
    /// when one is written.
    pub(crate) fn union_sorted<P: Borrow<LvalSet>>(
        &mut self,
        big: &[ObjId],
        parts: &[P],
        raw: &[ObjId],
    ) -> Option<Vec<ObjId>> {
        self.ledger.unions += 1;
        let smaller = parts.iter().enumerate().filter_map(|(i, p)| {
            let p = p.borrow();
            let repeat = i > 0 && Arc::ptr_eq(p, parts[i - 1].borrow());
            (!repeat && p.as_ptr() != big.as_ptr()).then_some(p.as_slice())
        });
        // Nothing but `big`: no id to test, and the answer is `big`.
        let top = smaller
            .clone()
            .filter_map(<[ObjId]>::last)
            .chain(raw)
            .max()?;
        let scanned = raw.len() + smaller.clone().map(<[ObjId]>::len).sum::<usize>();
        self.ledger.scanned += scanned as u64;
        if self.marks.len() <= top.index() {
            self.marks.resize(top.index() + 1, 0);
        }
        // A fresh stamp unmarks every id at once (a wrap would take 2^32
        // unions). A few lvals probe a large `big`; more and it is marked.
        self.stamp += 1;
        let (marks, stamp) = (&mut self.marks[..], self.stamp);
        let probe = scanned * 16 < big.len();
        if !probe {
            for b in big.iter().take_while(|&b| b <= top) {
                marks[b.index()] = stamp;
            }
        }
        self.extras.clear();
        for &e in smaller.flatten().chain(raw) {
            let mark = &mut marks[e.index()];
            if *mark != stamp && !(probe && big.binary_search(&e).is_ok()) {
                *mark = stamp;
                self.extras.push(e);
            }
        }
        if self.extras.is_empty() {
            return None;
        }
        self.extras.sort_unstable();
        // One linear write: `big` with the extras spliced in.
        let mut out = Vec::with_capacity(big.len() + self.extras.len());
        let mut rest = big;
        for &e in &self.extras {
            let (below, above) = rest.split_at(rest.partition_point(|&b| b < e));
            out.extend_from_slice(below);
            out.push(e);
            rest = above;
        }
        out.extend_from_slice(rest);
        self.ledger.written += out.len() as u64;
        Some(out)
    }

    /// Enters a sorted, deduplicated set: the existing allocation when the
    /// store holds that content, `set` itself otherwise.
    fn intern(&mut self, set: Vec<ObjId>) -> LvalSet {
        if set.is_empty() {
            return Arc::clone(&self.empty);
        }
        self.intern_hashed(content_key(&set), set)
    }

    /// [`LvalStore::intern`] under a given hash.
    fn intern_hashed(&mut self, key: u64, set: Vec<ObjId>) -> LvalSet {
        let answer = |held: &LvalSet, new| (Arc::clone(held), new);
        let (held, new) = enter(&mut self.sets, key, set, |held| held, |set| set, answer);
        if new {
            self.ledger.distinct += 1;
        } else {
            self.shared += 1;
        }
        held
    }
}

/// A sorted set's key in a store: one word-at-a-time pass over a set that
/// was just written.
pub(crate) fn content_key(set: &[ObjId]) -> u64 {
    let mix =
        |hash: u64, word: u64| (hash.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    let pair = |p: &[ObjId]| u64::from(p[0].0) << 32 | u64::from(p[p.len() - 1].0);
    // Four independent lanes, two ids a word, so the multiplies overlap.
    let mut lanes = [set.len() as u64, 1, 2, 3];
    let mut blocks = set.chunks_exact(8);
    for block in &mut blocks {
        for (lane, p) in lanes.iter_mut().zip(block.chunks_exact(2)) {
            *lane = mix(*lane, pair(p));
        }
    }
    let tail = blocks.remainder().chunks(2);
    let lane = tail.fold(lanes[0], |hash, p| mix(hash, pair(p)));
    lanes[1..].iter().fold(lane, |hash, &l| mix(hash, l))
}

/// Finds a sorted, deduplicated, non-empty set in `sets` under `key`, or
/// enters it there as `hold` keeps it, and returns what `answer` reads of
/// the value held for that content and of whether it is `set`'s. Equality
/// is confirmed on the content and colliding sets chain through the
/// following keys, so what is shared never depends on the hash function.
pub(crate) fn enter<V, R>(
    sets: &mut HashMap<u64, V>,
    mut key: u64,
    mut set: Vec<ObjId>,
    content: impl Fn(&V) -> &LvalSet,
    hold: impl FnOnce(LvalSet) -> V,
    answer: impl FnOnce(&V, bool) -> R,
) -> R {
    use std::collections::hash_map::Entry;
    loop {
        match sets.entry(key) {
            Entry::Occupied(held) if **content(held.get()) == set => {
                return answer(held.get(), false);
            }
            Entry::Occupied(_) => key = key.wrapping_add(1),
            Entry::Vacant(free) => {
                // This allocation is handed out as the answer and lives as
                // long as it does; `sort` + `dedup` may have left it the
                // capacity of every duplicate merged into it.
                set.shrink_to_fit();
                return answer(free.insert(hold(Arc::new(set))), true);
            }
        }
    }
}

/// Registered complex assignment, in terms of graph nodes.
#[derive(Debug, Clone, Copy)]
enum Complex {
    /// `*x = y`
    Store { x: u32, y: u32 },
    /// `x = *y`, with the dedicated `n_*y` node.
    Load { yderef: u32, y: u32 },
}

/// An indirect-call site signature in terms of graph nodes.
#[derive(Debug, Clone)]
struct IndirectSig {
    fp: u32,
    params: Vec<u32>,
    ret: u32,
}

/// All solver state except the database handle: the pre-transitive graph,
/// demand-loading bookkeeping, complex-assignment residue, and the
/// reachability caches. Owning no borrow, it can be kept resident (inside
/// [`Warm`]) and shipped across threads after the driver finishes.
struct GraphState {
    opts: SolveOptions,

    // --- graph ---
    skip: Vec<u32>,
    out: Vec<Vec<u32>>,
    base: Vec<Vec<ObjId>>,
    edge_set: std::collections::HashSet<u64>,

    // --- demand loading / activation ---
    active: Vec<bool>,
    pending: Vec<Vec<u32>>,
    /// Objects unified into a node whose blocks have not been loaded yet.
    /// An object node's own block is implicit (`loaded` says whether it is
    /// still owed), so a program that unifies nothing allocates nothing here.
    node_objs: Vec<Vec<u32>>,
    loaded: Vec<bool>,
    act_queue: Vec<u32>,
    blocks_loaded: u64,

    // --- complex assignments & calls ---
    complex: Vec<Complex>,
    deref_node: HashMap<u32, u32>,
    indirect: Vec<IndirectSig>,
    direct_sigs: HashMap<u32, (Vec<u32>, u32)>,

    // --- reachability caching ---
    epoch: u32,
    cache_epoch: Vec<u32>,
    /// The set of each node finished this epoch (`None` for a node never
    /// finished, so a node costs no reference count until it is).
    cache: Vec<Option<LvalSet>>,
    /// Hash-consed lval sets ("many lval sets are identical"); flushed with
    /// every epoch, as in the paper.
    store: LvalStore,

    // --- tarjan scratch (stamped per call, stacks reused across calls) ---
    call_id: u32,
    visit_call: Vec<u32>,
    index: Vec<u32>,
    lowlink: Vec<u32>,
    on_stack: Vec<bool>,
    /// Open frames: (node, next-edge cursor, start of its `parts`, start of
    /// its `raw`). A frame's lvals are the tails of the two stacks below, so
    /// a finished non-root node hands its lvals to its parent by returning.
    frames: Vec<(u32, u32, u32, u32)>,
    scc_stack: Vec<u32>,
    /// Sets of finished successors, by reference.
    parts: Vec<LvalSet>,
    /// `baseElements` of the nodes completed so far, unsorted.
    raw: Vec<ObjId>,

    stats: SolveStats,
}

/// The fixpoint driver: feeds assignments into the graph and, in database
/// mode, services demand loads until the iteration stabilizes.
struct Solver<'db> {
    db: Option<&'db Database>,
    g: GraphState,
    /// Cached handle: demand-loaded blocks dropped after integration
    /// (load-and-throw-away), mirrored into the global metric registry.
    obs_blocks_discarded: cla_obs::Counter,
}

/// Solves points-to over a fully loaded unit.
pub fn solve_unit(unit: &CompiledUnit, opts: SolveOptions) -> (PointsTo, SolveStats) {
    let mut warm = Warm::from_unit(unit, opts);
    let pts = warm.extract_points_to(&unit.objects);
    (pts, warm.stats())
}

/// Solves points-to directly from an object-file database with demand
/// loading (the CLA analyze phase).
///
/// # Panics
///
/// Panics when the database's assignment payload is corrupt (a database
/// that [`Database::open`] accepted but whose records fail to decode).
/// Validate untrusted files with [`Database::verify_all`] first.
pub fn solve_database(db: &Database, opts: SolveOptions) -> (PointsTo, SolveStats) {
    let mut warm = Warm::from_database(db, opts);
    let pts = warm.extract_by_kind(db.ids().map(|o| db.kind(o)));
    (pts, warm.stats())
}

/// A solved pre-transitive graph kept warm for repeated queries.
///
/// Produced by [`Warm::from_database`] (or [`Warm::from_unit`]); owns no
/// reference to the database it was solved from, so it can outlive it and
/// move across threads. It is the solver's half-way state, not a query
/// surface: turn it into the relation with [`Warm::extract_points_to`] or
/// into the resident, lock-free form with [`Warm::seal`].
pub struct Warm {
    graph: Graph,
    stats: SolveStats,
    n_objects: usize,
}

/// What a [`Warm`] holds: the graph as the fixpoint left it, then the
/// relation the first sweep read out of it.
enum Graph {
    Frozen(Frozen),
    Swept(Relation),
}

impl Warm {
    /// Solves `unit` to fixpoint and returns the warm graph.
    pub fn from_unit(unit: &CompiledUnit, opts: SolveOptions) -> Warm {
        let mut sp = cla_obs::global().span("solve", "solve.fixpoint");
        sp.set("mode", "unit");
        let mut s = Solver {
            db: None,
            g: GraphState::new(unit.objects.len(), false, opts),
            obs_blocks_discarded: cla_obs::global().counter("cla_db_blocks_discarded_total"),
        };
        s.g.register_sigs(&unit.funsigs);
        for a in &unit.assigns {
            s.g.add_assign(a);
        }
        s.run();
        sp.set("passes", s.g.stats.passes);
        sp.set("edges_added", s.g.stats.edges_added);
        Warm::freeze(s.g, unit.objects.len())
    }

    /// Solves `db` to fixpoint with demand loading and returns the warm
    /// graph. See [`solve_database`] for the panic conditions.
    pub fn from_database(db: &Database, opts: SolveOptions) -> Warm {
        let mut sp = cla_obs::global().span("solve", "solve.fixpoint");
        sp.set("mode", "database");
        let mut s = Solver {
            db: Some(db),
            g: GraphState::new(db.object_count(), true, opts),
            obs_blocks_discarded: cla_obs::global().counter("cla_db_blocks_discarded_total"),
        };
        s.g.register_sigs(db.funsigs());
        // The static section (x = &y) is the starting point and is always
        // loaded (paper §4).
        let statics = db.static_assigns().expect("valid database");
        for a in &statics {
            s.g.add_assign(a);
        }
        s.run();
        // Reading the stats also publishes the demand-load deltas to the
        // global metrics registry (see `Database::load_stats`), so serve
        // sessions get fresh counters without touching the fetch hot path.
        let _ = db.load_stats();
        sp.set("passes", s.g.stats.passes);
        sp.set("edges_added", s.g.stats.edges_added);
        sp.set("blocks_loaded", s.g.blocks_loaded);
        Warm::freeze(s.g, db.object_count())
    }

    /// Keeps what the sweep reads of the solved graph — representatives,
    /// copy edges, base lvals, activity — and drops the rest: the edge set,
    /// the waiters, the caches, the deref map and the traversal scratch.
    fn freeze(mut g: GraphState, n_objects: usize) -> Warm {
        for n in 0..g.skip.len() as u32 {
            g.find(n);
        }
        let mut stats = g.stats;
        stats.sets_shared = g.store.shared;
        stats.complex_in_core = g.complex.len();
        stats.nodes = g.skip.len();
        stats.approx_bytes = g.graph_bytes();
        let frozen = Frozen::new(g.skip, g.active, &g.out, g.base, g.store.empty, n_objects);
        Warm {
            graph: Graph::Frozen(frozen),
            stats,
            n_objects,
        }
    }

    /// Every object's `getLvals` result, indexed by object id: the one
    /// sweep, on as many threads as the compile pool runs. Members of one
    /// component and objects of equal sets share one allocation, and
    /// nothing is copied.
    ///
    /// Timed as `span` (`solve.extract` or `solve.seal`), which carries the
    /// sweep's union ledger, `threads` and `levels`.
    fn read_out(&mut self, span: &'static str) -> Vec<LvalSet> {
        self.read_out_on(crate::pipeline::resolve_jobs(0), INLINE_BELOW, span)
            .0
    }

    /// [`Warm::read_out`] on up to `threads` threads, running levels whose
    /// unions read fewer than `inline_below` lvals on the calling thread.
    fn read_out_on(
        &mut self,
        threads: usize,
        inline_below: usize,
        span: &'static str,
    ) -> (Vec<LvalSet>, SweepCounts) {
        let mut sp = cla_obs::global().span("solve", span);
        sp.set("objects", self.n_objects);
        let (swept, counts) = match &self.graph {
            Graph::Frozen(frozen) => {
                let (relation, counts) = frozen.sweep(threads, inline_below);
                (Some(relation), counts)
            }
            // Read again: every call finds its component already reached.
            Graph::Swept(relation) => {
                let again = SweepCounts {
                    calls: relation.calls,
                    hits: relation.calls,
                    ..SweepCounts::default()
                };
                (None, again)
            }
        };
        if let Some(relation) = swept {
            // The frozen graph goes here, before the per-object sets exist.
            self.graph = Graph::Swept(relation);
        }
        let st = &mut self.stats;
        st.getlvals_calls += counts.calls;
        st.cache_hits += counts.hits;
        st.dfs_visits += counts.visits;
        st.unifications += counts.unifications;
        st.sets_shared += counts.shared;
        st.approx_bytes += counts.set_bytes;
        sp.set("threads", counts.threads);
        sp.set("levels", counts.levels);
        counts.ledger.publish_since(UnionLedger::default(), &mut sp);
        let Graph::Swept(relation) = &self.graph else {
            unreachable!("a sweep leaves the relation")
        };
        (relation.per_object(), counts)
    }

    /// Materializes the complete solution (every object's set); objects
    /// with one solver set share one [`LvalSet`].
    pub fn extract_points_to(&mut self, objects: &[ObjectInfo]) -> PointsTo {
        self.extract_by_kind(objects.iter().map(|o| o.kind))
    }

    /// [`Warm::extract_points_to`] given each object's kind, in id order:
    /// all it reads of the metadata, and what a [`Database`] answers in
    /// place.
    pub fn extract_by_kind(&mut self, kinds: impl IntoIterator<Item = ObjKind>) -> PointsTo {
        PointsTo::from_kinds(self.read_out("solve.extract"), kinds)
    }

    /// Current counters, including live in-core/size figures.
    pub fn stats(&self) -> SolveStats {
        self.stats
    }

    /// The number of objects in the solved program.
    pub fn object_count(&self) -> usize {
        self.n_objects
    }

    /// Freezes the solved graph into an immutable, `Sync` snapshot.
    ///
    /// Every object's set is materialized eagerly by the same sweep as
    /// [`Warm::extract_points_to`]: objects whose nodes form one strongly
    /// connected component share a single [`LvalSet`], as do components
    /// whose sets are equal. The result answers queries on `&self` with no
    /// interior mutability at all, so any number of threads can read it
    /// concurrently without locks.
    pub fn seal(mut self) -> SealedGraph {
        let sets = self.read_out("solve.seal");
        SealedGraph {
            sets,
            stats: self.stats,
        }
    }
}

/// An immutable snapshot of a solved pre-transitive graph.
///
/// Produced by [`Warm::seal`] — the query surface of a solve. [`Warm`]
/// itself answers nothing: it only solves and materializes. A sealed graph
/// is plain shared data: it is `Send + Sync`, all query methods take
/// `&self`, and readers never contend. This is the form a server keeps
/// resident — queries run lock-free against the snapshot while a
/// replacement is solved and sealed off to the side.
#[derive(Debug)]
pub struct SealedGraph {
    /// Per-object points-to set, indexed by object id; members of one
    /// collapsed SCC share a single allocation.
    sets: Vec<LvalSet>,
    stats: SolveStats,
}

impl SealedGraph {
    /// Rebuilds a sealed graph from externally stored parts (the `cla-snap`
    /// snapshot loader). `sets[i]` is object `i`'s points-to set, sorted;
    /// callers preserve SCC/hash-cons sharing by cloning one `Arc` for every
    /// object of a shared set, exactly as [`Warm::seal`] produces it — the
    /// `ptr::eq` fast path in [`SealedGraph::may_alias`] depends on it.
    pub fn from_parts(sets: Vec<LvalSet>, stats: SolveStats) -> SealedGraph {
        SealedGraph { sets, stats }
    }

    /// The per-object sets with their sharing structure intact (one `Arc`
    /// clone per object; SCC members alias the same allocation). This is the
    /// serialization view used by the snapshot writer — compare with
    /// [`Arc::as_ptr`] to encode each distinct set once.
    pub fn sets(&self) -> &[LvalSet] {
        &self.sets
    }

    /// The points-to set of `o`, as sorted object ids.
    pub fn points_to(&self, o: ObjId) -> &[ObjId] {
        self.sets.get(o.index()).map_or(&[], |s| s)
    }

    /// Whether `*a` and `*b` can name the same object: the points-to sets
    /// of `a` and `b` intersect.
    pub fn may_alias(&self, a: ObjId, b: ObjId) -> bool {
        let sa = self.points_to(a);
        let sb = self.points_to(b);
        // Unified or hash-consed identical sets short-circuit.
        (!sa.is_empty() && std::ptr::eq(sa, sb)) || sets_intersect(sa, sb)
    }

    /// The complete solution as a [`PointsTo`] over the same shared sets
    /// (one `Arc` clone per object, no set copied).
    pub fn extract_points_to(&self, objects: &[ObjectInfo]) -> PointsTo {
        self.extract_by_kind(objects.iter().map(|o| o.kind))
    }

    /// [`SealedGraph::extract_points_to`] given each object's kind, in id
    /// order (see [`Warm::extract_by_kind`]).
    pub fn extract_by_kind(&self, kinds: impl IntoIterator<Item = ObjKind>) -> PointsTo {
        PointsTo::from_kinds(self.sets.clone(), kinds)
    }

    /// Counters of the solve that produced this snapshot, frozen at seal
    /// time (including the cache traffic of the eager materialization).
    pub fn stats(&self) -> SolveStats {
        self.stats
    }

    /// The number of objects in the solved program.
    pub fn object_count(&self) -> usize {
        self.sets.len()
    }

    /// Rough live-memory estimate of the snapshot, in bytes. Shared sets
    /// are counted once.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut seen: std::collections::HashSet<*const Vec<ObjId>> =
            std::collections::HashSet::new();
        let mut bytes = self.sets.len() * size_of::<LvalSet>();
        for s in &self.sets {
            if seen.insert(Arc::as_ptr(s)) {
                bytes += s.capacity() * size_of::<ObjId>();
            }
        }
        bytes
    }
}

impl PointsToQuery for SealedGraph {
    fn pointees(&self, obj: ObjId) -> &[ObjId] {
        self.points_to(obj)
    }
}

impl Solver<'_> {
    /// Loads the assignment blocks of every newly activated object
    /// (demand-driven loading). No-op when solving a fully loaded unit.
    fn drain_activations(&mut self) {
        let Some(db) = self.db else {
            self.g.act_queue.clear();
            return;
        };
        while let Some(n) = self.g.act_queue.pop() {
            // The node's own block first, then those of the objects unified
            // into it (temporaries have no block and are born `loaded`).
            let merged = std::mem::take(&mut self.g.node_objs[n as usize]);
            for o in std::iter::once(n).chain(merged) {
                if self.g.loaded[o as usize] {
                    continue;
                }
                self.g.loaded[o as usize] = true;
                self.g.blocks_loaded += 1;
                let block = db.block(ObjId(o)).expect("valid database");
                for a in &block {
                    self.g.add_assign(a);
                }
                // The decoded block is dropped here: load-and-throw-away.
                self.obs_blocks_discarded.inc();
            }
        }
    }

    /// One pass of the iteration algorithm. Returns true when anything
    /// changed (edges added or new blocks loaded).
    fn pass(&mut self) -> bool {
        let edges_before = self.g.stats.edges_added;
        let loads_before = self.g.blocks_loaded;
        self.g.next_epoch();
        self.drain_activations();

        let mut i = 0;
        while i < self.g.complex.len() {
            match self.g.complex[i] {
                Complex::Store { x, y } => {
                    let xr = self.g.find(x);
                    if self.g.active[xr as usize] {
                        let lv = self.g.get_lvals(xr);
                        for z in lv.iter() {
                            self.g.add_edge(z.0, y);
                        }
                    }
                }
                Complex::Load { yderef, y } => {
                    let yr = self.g.find(y);
                    if self.g.active[yr as usize] {
                        let lv = self.g.get_lvals(yr);
                        for z in lv.iter() {
                            self.g.add_edge(yderef, z.0);
                        }
                    }
                }
            }
            if !self.g.act_queue.is_empty() {
                self.drain_activations();
            }
            i += 1;
        }

        // Indirect calls: for every function lval g in pts(fp), link
        // g$i ⊇ fp$i and fp$ret ⊇ g$ret (paper §4).
        for i in 0..self.g.indirect.len() {
            let fp = self.g.find(self.g.indirect[i].fp);
            if !self.g.active[fp as usize] {
                continue;
            }
            let lv = self.g.get_lvals(fp);
            for gfun in lv.iter() {
                let Some((gparams, gret)) = self.g.direct_sigs.get(&gfun.0) else {
                    continue;
                };
                let gparams = gparams.clone();
                let gret = *gret;
                let nparams = self.g.indirect[i].params.len().min(gparams.len());
                for (k, gp) in gparams.iter().enumerate().take(nparams) {
                    let fp_param = self.g.indirect[i].params[k];
                    self.g.add_edge(*gp, fp_param);
                }
                let fp_ret = self.g.indirect[i].ret;
                self.g.add_edge(fp_ret, gret);
            }
            if !self.g.act_queue.is_empty() {
                self.drain_activations();
            }
        }

        self.g.stats.edges_added != edges_before || self.g.blocks_loaded != loads_before
    }

    fn run(&mut self) {
        let obs = cla_obs::global();
        loop {
            self.g.stats.passes += 1;
            let before = self.g.stats;
            let loads_before = self.g.blocks_loaded;
            let unions_before = self.g.store.ledger;
            let mut sp = obs.span("solve", "solve.pass");
            sp.set("pass", self.g.stats.passes);
            let changed = self.pass();
            // Per-pass deltas make the cache-decay curve across passes
            // (Figure 5) directly visible in a trace.
            let st = self.g.stats;
            sp.set("getlvals_calls", st.getlvals_calls - before.getlvals_calls);
            sp.set("cache_hits", st.cache_hits - before.cache_hits);
            sp.set("unifications", st.unifications - before.unifications);
            sp.set("edges_added", st.edges_added - before.edges_added);
            sp.set("blocks_loaded", self.g.blocks_loaded - loads_before);
            self.g.store.ledger.publish_since(unions_before, &mut sp);
            drop(sp);
            obs.counter("cla_solve_passes_total").inc();
            obs.counter("cla_solve_getlvals_total")
                .add(st.getlvals_calls - before.getlvals_calls);
            obs.counter("cla_solve_cache_hits_total")
                .add(st.cache_hits - before.cache_hits);
            obs.counter("cla_solve_unifications_total")
                .add(st.unifications - before.unifications);
            obs.counter("cla_solve_edges_added_total")
                .add(st.edges_added - before.edges_added);
            if !changed {
                break;
            }
        }
    }
}

impl GraphState {
    fn new(n_objects: usize, demand: bool, opts: SolveOptions) -> Self {
        let n = n_objects;
        let store = LvalStore::default();
        GraphState {
            opts,
            skip: (0..n as u32).collect(),
            out: vec![Vec::new(); n],
            base: vec![Vec::new(); n],
            edge_set: std::collections::HashSet::new(),
            active: vec![false; n],
            pending: vec![Vec::new(); n],
            node_objs: vec![Vec::new(); n],
            loaded: vec![!demand; n],
            act_queue: Vec::new(),
            blocks_loaded: 0,
            complex: Vec::new(),
            deref_node: HashMap::new(),
            indirect: Vec::new(),
            direct_sigs: HashMap::new(),
            epoch: 0,
            cache_epoch: vec![0; n],
            cache: vec![None; n],
            store,
            call_id: 0,
            visit_call: vec![0; n],
            index: vec![0; n],
            lowlink: vec![0; n],
            on_stack: vec![false; n],
            frames: Vec::new(),
            scc_stack: Vec::new(),
            parts: Vec::new(),
            raw: Vec::new(),
            stats: SolveStats::default(),
        }
    }

    fn new_node(&mut self) -> u32 {
        let id = self.skip.len() as u32;
        self.skip.push(id);
        self.out.push(Vec::new());
        self.base.push(Vec::new());
        self.active.push(false);
        self.pending.push(Vec::new());
        self.node_objs.push(Vec::new());
        self.loaded.push(true);
        self.cache_epoch.push(0);
        self.cache.push(None);
        self.visit_call.push(0);
        self.index.push(0);
        self.lowlink.push(0);
        self.on_stack.push(false);
        id
    }

    fn find(&mut self, mut n: u32) -> u32 {
        // Iterative find with path compression over the skip pointers.
        let mut root = n;
        while self.skip[root as usize] != root {
            root = self.skip[root as usize];
        }
        while self.skip[n as usize] != root {
            let next = self.skip[n as usize];
            self.skip[n as usize] = root;
            n = next;
        }
        root
    }

    /// Starts a new epoch: everything cached so far is stale, and the set
    /// store forgets its sets with it (those handed out live on).
    fn next_epoch(&mut self) {
        self.epoch += 1;
        self.store.sets.clear();
    }

    fn register_sigs(&mut self, sigs: &[FunSig]) {
        for s in sigs {
            if s.is_indirect {
                self.indirect.push(IndirectSig {
                    fp: s.obj.0,
                    params: s.params.iter().map(|p| p.0).collect(),
                    ret: s.ret.0,
                });
            } else {
                self.direct_sigs
                    .insert(s.obj.0, (s.params.iter().map(|p| p.0).collect(), s.ret.0));
            }
        }
    }

    /// Integrates one primitive assignment: simple forms become graph
    /// structure immediately (and can be discarded by the caller — the
    /// paper's discard strategy keeps only complex assignments in core).
    fn add_assign(&mut self, a: &PrimAssign) {
        match a.kind {
            AssignKind::Copy => {
                self.add_edge(a.dst.0, a.src.0);
            }
            AssignKind::Addr => {
                let d = self.find(a.dst.0);
                let v = a.src;
                let set = &mut self.base[d as usize];
                if let Err(pos) = set.binary_search(&v) {
                    set.insert(pos, v);
                }
                self.activate(d);
            }
            AssignKind::Store => {
                self.complex.push(Complex::Store {
                    x: a.dst.0,
                    y: a.src.0,
                });
            }
            AssignKind::Load => {
                let d = self.deref_of(a.src.0);
                self.add_edge(a.dst.0, d);
                self.complex.push(Complex::Load {
                    yderef: d,
                    y: a.src.0,
                });
            }
            AssignKind::StoreLoad => {
                // *x = *y splits into t = *y; *x = t over a fresh node.
                let t = self.new_node();
                let d = self.deref_of(a.src.0);
                self.add_edge(t, d);
                self.complex.push(Complex::Load {
                    yderef: d,
                    y: a.src.0,
                });
                self.complex.push(Complex::Store { x: a.dst.0, y: t });
            }
        }
    }

    /// The shared `n_*y` node for loads from `y` (paper: one deref node per
    /// variable, created on demand).
    fn deref_of(&mut self, y_obj: u32) -> u32 {
        if let Some(&d) = self.deref_node.get(&y_obj) {
            return d;
        }
        let d = self.new_node();
        self.deref_node.insert(y_obj, d);
        d
    }

    /// Adds edge `u → v` (meaning `pts(u) ⊇ pts(v)`); returns true when new.
    fn add_edge(&mut self, u: u32, v: u32) -> bool {
        let u = self.find(u);
        let v = self.find(v);
        if u == v {
            return false;
        }
        let key = (u64::from(u) << 32) | u64::from(v);
        if !self.edge_set.insert(key) {
            return false;
        }
        self.out[u as usize].push(v);
        self.stats.edges_added += 1;
        if self.active[v as usize] {
            self.activate(u);
        } else {
            self.pending[v as usize].push(u);
        }
        true
    }

    /// Marks a node (and everything waiting on it) as having a potentially
    /// non-empty points-to set, queueing block loads.
    fn activate(&mut self, n: u32) {
        let n = self.find(n);
        if self.active[n as usize] {
            return;
        }
        let mut stack = vec![n];
        while let Some(m) = stack.pop() {
            if self.active[m as usize] {
                continue;
            }
            self.active[m as usize] = true;
            self.act_queue.push(m);
            for w in std::mem::take(&mut self.pending[m as usize]) {
                let w = self.find(w);
                if !self.active[w as usize] {
                    stack.push(w);
                }
            }
        }
    }

    // ----- reachability -----------------------------------------------------

    /// The set node `n` finished with this epoch.
    fn cached(&self, n: u32) -> &LvalSet {
        (self.cache[n as usize].as_ref()).expect("a node finished this epoch has a set")
    }

    /// The points-to set of node `start` (object ids, sorted), computed by
    /// graph reachability with cycle elimination and per-pass caching.
    fn get_lvals(&mut self, start: u32) -> LvalSet {
        self.stats.getlvals_calls += 1;
        if !self.opts.cache {
            // No cross-query caching: results live only within one call.
            self.next_epoch();
        }
        let start = self.find(start);
        if self.cache_epoch[start as usize] == self.epoch {
            self.stats.cache_hits += 1;
            return Arc::clone(self.cached(start));
        }
        if self.opts.cycle_elim {
            self.tarjan_lvals(start)
        } else {
            self.plain_dfs_lvals(start)
        }
    }

    /// Iterative Tarjan SCC traversal: computes lvals bottom-up in reverse
    /// topological order, unifying every SCC it pops, and caching the result
    /// for every node it completes.
    ///
    /// No lval is copied on the way up. A frame owns the tails of `parts`
    /// (its finished successors' sets, by reference) and `raw` (base lvals);
    /// a node that is not an SCC root leaves both where they are for its
    /// parent, and a root joins them with one [`LvalStore::union`].
    fn tarjan_lvals(&mut self, start: u32) -> LvalSet {
        self.call_id += 1;
        let cid = self.call_id;
        let mut next_index: u32 = 0;
        self.push_frame(start, &mut next_index);

        loop {
            let Some(&mut (n, ref mut cursor, parts_at, raw_at)) = self.frames.last_mut() else {
                unreachable!("loop returns at the root frame")
            };
            if let Some(&raw) = self.out[n as usize].get(*cursor as usize) {
                // Scan the next edge of n.
                *cursor += 1;
                let s = self.find(raw);
                if s == n {
                    continue;
                }
                if self.cache_epoch[s as usize] == self.epoch {
                    // Finished earlier this pass (or this call): a part.
                    if !self.cached(s).is_empty() {
                        self.parts.push(Arc::clone(self.cached(s)));
                    }
                    continue;
                }
                if self.visit_call[s as usize] == cid {
                    if self.on_stack[s as usize] {
                        // Back edge: potential cycle.
                        let low = self.index[s as usize];
                        if low < self.lowlink[n as usize] {
                            self.lowlink[n as usize] = low;
                        }
                    }
                    // Cross edge to a completed-but-uncached node cannot
                    // happen: completion always caches.
                    continue;
                }
                self.push_frame(s, &mut next_index);
                continue;
            }

            // Frame complete: its own lvals join what its successors left.
            self.frames.pop();
            self.raw.extend_from_slice(&self.base[n as usize]);
            if self.lowlink[n as usize] != self.index[n as usize] {
                // Not a root: the lvals stay on the stacks, now the parent's;
                // the SCC root will finalize and cache.
                let &(pn, ..) = self.frames.last().expect("non-root node has a parent");
                let low = self.lowlink[n as usize];
                if low < self.lowlink[pn as usize] {
                    self.lowlink[pn as usize] = low;
                }
                continue;
            }
            // n roots an SCC: pop members and unify them into n.
            loop {
                let m = self.scc_stack.pop().expect("scc stack underflow");
                self.on_stack[m as usize] = false;
                if m == n {
                    break;
                }
                self.unify_into(m, n);
            }
            let (parts_at, raw_at) = (parts_at as usize, raw_at as usize);
            let set = self
                .store
                .union(&mut self.parts[parts_at..], &self.raw[raw_at..]);
            self.parts.truncate(parts_at);
            self.raw.truncate(raw_at);
            self.cache_epoch[n as usize] = self.epoch;
            self.cache[n as usize] = Some(Arc::clone(&set));
            if self.frames.is_empty() {
                return set;
            }
            if !set.is_empty() {
                self.parts.push(set);
            }
        }
    }

    fn push_frame(&mut self, n: u32, next_index: &mut u32) {
        self.visit_call[n as usize] = self.call_id;
        self.index[n as usize] = *next_index;
        self.lowlink[n as usize] = *next_index;
        *next_index += 1;
        self.on_stack[n as usize] = true;
        self.scc_stack.push(n);
        self.stats.dfs_visits += 1;
        let frame = (n, 0, self.parts.len() as u32, self.raw.len() as u32);
        self.frames.push(frame);
    }

    /// Reachability without cycle elimination — the paper's *naive*
    /// formulation (Figure 5's `getLvals` with `onPath` but no
    /// `unifyNode`): the only cycle check is "skip nodes on the current
    /// path", so a node is re-explored once per distinct path reaching it.
    /// This is combinatorial on join-heavy graphs, which is precisely the
    /// behaviour the §5 ablation measures (>50,000x on gimp). Only the
    /// queried root may be cached: inner nodes of cycles see
    /// under-approximated sets.
    fn plain_dfs_lvals(&mut self, start: u32) -> LvalSet {
        let mut acc: Vec<ObjId> = Vec::new();
        // Frames: (node, next edge index). `on_stack` is the onPath bit.
        let mut frames: Vec<(u32, usize)> = Vec::new();
        self.on_stack[start as usize] = true;
        self.stats.dfs_visits += 1;
        acc.extend_from_slice(&self.base[start as usize]);
        frames.push((start, 0));
        while let Some(fi) = frames.len().checked_sub(1) {
            let (n, cursor) = frames[fi];
            if cursor >= self.out[n as usize].len() {
                self.on_stack[n as usize] = false;
                frames.pop();
                continue;
            }
            frames[fi].1 += 1;
            let s = self.find(self.out[n as usize][cursor]);
            if self.on_stack[s as usize] {
                continue; // on the current path: cycle, return empty set
            }
            if self.cache_epoch[s as usize] == self.epoch {
                let cached = Arc::clone(self.cached(s));
                acc.extend_from_slice(&cached);
                continue;
            }
            self.on_stack[s as usize] = true;
            self.stats.dfs_visits += 1;
            acc.extend_from_slice(&self.base[s as usize]);
            frames.push((s, 0));
        }
        acc.sort_unstable();
        acc.dedup();
        let set = self.store.intern(acc);
        self.cache_epoch[start as usize] = self.epoch;
        self.cache[start as usize] = Some(Arc::clone(&set));
        set
    }

    /// Merges node `u` into representative `v` (the paper's `unifyNode`):
    /// `u`'s skip pointer is set to `v` and edge/base/activation state is
    /// merged.
    fn unify_into(&mut self, u: u32, v: u32) {
        debug_assert_ne!(u, v);
        self.stats.unifications += 1;
        self.skip[u as usize] = v;
        let edges = std::mem::take(&mut self.out[u as usize]);
        self.out[v as usize].extend(edges);
        let ubase = std::mem::take(&mut self.base[u as usize]);
        let vbase = &mut self.base[v as usize];
        if let Some(merged) = self.store.union_sorted::<LvalSet>(vbase, &[], &ubase) {
            *vbase = merged;
        }
        // Merge caches so this pass never under-approximates after a merge.
        if self.cache_epoch[u as usize] == self.epoch {
            if self.cache_epoch[v as usize] == self.epoch {
                let mut both = [u, v].map(|n| Arc::clone(self.cached(n)));
                self.cache[v as usize] = Some(self.store.union(&mut both, &[]));
            } else {
                self.cache[v as usize] = self.cache[u as usize].clone();
                self.cache_epoch[v as usize] = self.epoch;
            }
        }
        // Activation and demand state.
        let upend = std::mem::take(&mut self.pending[u as usize]);
        let uobjs = std::mem::take(&mut self.node_objs[u as usize]);
        if !self.loaded[u as usize] {
            self.node_objs[v as usize].push(u);
        }
        self.node_objs[v as usize].extend(uobjs);
        if self.active[u as usize] && !self.active[v as usize] {
            self.active[u as usize] = false;
            // Re-run activation on the representative so pending waiters and
            // block loads fire.
            self.pending[v as usize].extend(upend);
            self.activate(v);
        } else if self.active[v as usize] {
            // v already active: u's waiters activate, u's objects load.
            for w in upend {
                self.activate(w);
            }
            if self.active[u as usize] {
                self.active[u as usize] = false;
            } else {
                self.act_queue.push(v);
            }
        } else {
            self.pending[v as usize].extend(upend);
        }
    }

    /// Table 3's "in core" estimate of the graph as the fixpoint leaves it;
    /// [`SolveStats::approx_bytes`] adds the sweep's distinct sets to it. A
    /// `.clasnap` stores it with the other stats and
    /// `tests/golden_bytes.rs` pins those bytes, so the terms are the ones
    /// the format has always carried: `node_objs`, `loaded` and the
    /// traversal and union scratch (all small beside the sets) are not in
    /// it, and join it with a snapshot `VERSION` bump that changes content,
    /// not before. (v2 changed only the checksums, and left these bytes
    /// alone so the content pin could prove it.)
    fn graph_bytes(&self) -> usize {
        use std::mem::size_of;
        let nodes = self.skip.len();
        let edge_bytes: usize = self
            .out
            .iter()
            .map(|v| v.capacity() * size_of::<u32>())
            .sum();
        let base_bytes: usize = self
            .base
            .iter()
            .map(|v| v.capacity() * size_of::<ObjId>())
            .sum();
        let pending_bytes: usize = self
            .pending
            .iter()
            .map(|v| v.capacity() * size_of::<u32>())
            .sum();
        // Per-node cache entries are Arc references.
        let cache_bytes = self.cache.len() * size_of::<LvalSet>();
        nodes * (size_of::<u32>() * 5 + size_of::<bool>() * 2)
            + edge_bytes
            + base_bytes
            + pending_bytes
            + cache_bytes
            + self.edge_set.capacity() * size_of::<u64>()
            + self.complex.len() * size_of::<Complex>()
    }
}

/// Number of blocks loaded and related demand statistics for a database
/// solve: read them from [`Database::load_stats`] after calling
/// [`solve_database`].
#[cfg(test)]
mod tests {
    use super::*;
    use crate::deductive::solve_oracle;
    use cla_ir::{compile_source, LowerOptions};

    fn unit_of(src: &str) -> CompiledUnit {
        compile_source(src, "t.c", &LowerOptions::default()).unwrap()
    }

    fn check_matches_oracle(src: &str) {
        let unit = unit_of(src);
        let oracle = solve_oracle(&unit);
        let (got, _) = solve_unit(&unit, SolveOptions::default());
        for (obj, set) in oracle.iter() {
            assert_eq!(
                got.points_to(obj),
                set,
                "mismatch for {} in {src}",
                unit.object(obj).name
            );
        }
        for (obj, set) in got.iter() {
            assert_eq!(
                oracle.points_to(obj),
                set,
                "extra results for {} in {src}",
                unit.object(obj).name
            );
        }
    }

    fn ids(ids: impl IntoIterator<Item = u32>) -> Vec<ObjId> {
        ids.into_iter().map(ObjId).collect()
    }

    /// A set as the store hands it out: entered through a raw-only union.
    fn held(store: &mut LvalStore, set: impl IntoIterator<Item = u32>) -> LvalSet {
        store.union(&mut [], &ids(set))
    }

    #[test]
    fn union_returns_a_part_that_is_the_answer() {
        let mut store = LvalStore::default();
        let big = held(&mut store, (0..400).step_by(2));
        let sub = held(&mut store, (0..400).step_by(8));
        let before = (store.shared, store.ledger.distinct);

        // One part, and the same part many times over: itself.
        assert!(Arc::ptr_eq(&store.union(&mut [big.clone()], &[]), &big));
        let mut repeated = vec![big.clone(); 5];
        assert!(Arc::ptr_eq(&store.union(&mut repeated, &[]), &big));
        assert_eq!(
            store.ledger.scanned, 250,
            "only the two raw-only unions scan"
        );
        // Subset parts and raw lvals it already holds, in either regime:
        // 50 lvals mark the 200, three probe them.
        let mut parts = [sub.clone(), big.clone(), sub.clone()];
        assert!(Arc::ptr_eq(&store.union(&mut parts, &ids([6, 2, 6])), &big));
        assert!(Arc::ptr_eq(
            &store.union(&mut [big.clone()], &ids([398, 0, 0])),
            &big
        ));
        // Each of the four counted where an interner hit used to be, and
        // nothing was written.
        assert_eq!(
            (store.shared, store.ledger.distinct),
            (before.0 + 4, before.1)
        );
        assert_eq!(store.ledger.shared, 4);
    }

    #[test]
    fn union_writes_what_is_new_once_and_shares_it_by_value() {
        let mut store = LvalStore::default();
        let evens = held(&mut store, (0..100).step_by(2));
        let odds = held(&mut store, (1..100).step_by(2));
        let all = store.union(&mut [evens.clone(), odds.clone()], &[]);
        assert_eq!(**all, ids(0..100));
        assert_eq!(all.capacity(), 100);
        // The same content by another route — a part, a probe's worth of
        // raw lvals with repeats, unsorted — is the same allocation.
        let low = held(&mut store, 0..97);
        let again = store.union(&mut [low], &ids([99, 97, 98, 97, 3]));
        assert!(Arc::ptr_eq(&again, &all));
        // Raw only: sorted, deduplicated, and found again by value.
        let raw = store.union(&mut [], &ids([9, 3, 9, 1]));
        assert_eq!(**raw, ids([1, 3, 9]));
        assert!(Arc::ptr_eq(&held(&mut store, [3, 1, 9]), &raw));
        // An id above everything marked so far grows the scratch.
        let high = store.union(&mut [raw.clone()], &ids([70_000]));
        assert_eq!(**high, ids([1, 3, 9, 70_000]));
    }

    #[test]
    fn union_of_nothing_is_the_one_empty_set() {
        let mut store = LvalStore::default();
        let empty = store.union(&mut [], &[]);
        assert!(empty.is_empty());
        assert!(Arc::ptr_eq(&empty, &store.union(&mut [empty.clone()], &[])));
        assert!(Arc::ptr_eq(&empty, &store.intern(Vec::new())));
        assert_eq!((store.shared, store.ledger.distinct), (0, 0));
        // Empty parts beside a real one change nothing.
        let one = held(&mut store, [5]);
        assert!(Arc::ptr_eq(
            &store.union(&mut [empty, one.clone()], &[]),
            &one
        ));
    }

    #[test]
    fn colliding_hashes_chain_and_still_share() {
        let mut store = LvalStore::default();
        let a = store.intern_hashed(7, ids([1, 2]));
        let b = store.intern_hashed(7, ids([3]));
        let c = store.intern_hashed(8, ids([4]));
        assert_eq!([&*a, &*b, &*c], [&ids([1, 2]), &ids([3]), &ids([4])]);
        assert_eq!(store.shared, 0);
        for (hash, set, held) in [(7, ids([3]), &b), (7, ids([1, 2]), &a), (8, ids([4]), &c)] {
            assert!(Arc::ptr_eq(&store.intern_hashed(hash, set), held));
        }
        assert_eq!((store.shared, store.ledger.distinct), (3, 3));
    }

    #[test]
    fn figure3() {
        check_matches_oracle("int x, *y; int **z; void f(void) { z = &y; *z = &x; }");
    }

    #[test]
    fn chains_and_cycles() {
        check_matches_oracle(
            "int v, w, *a, *b, *c;
             void f(void) { a = b; b = c; c = a; a = &v; c = &w; }",
        );
    }

    #[test]
    fn loads_and_stores() {
        check_matches_oracle(
            "int x, y, *p, *q, **pp;
             void f(void) { p = &x; q = &y; pp = &p; *pp = q; p = *pp; }",
        );
    }

    #[test]
    fn store_load() {
        check_matches_oracle(
            "int a, *pa, *pb, **x, **y;
             void f(void) { pa = &a; x = &pa; y = &pb; *y = *x; }",
        );
    }

    #[test]
    fn long_copy_chain() {
        check_matches_oracle(
            "int v; int *a, *b, *c, *d, *e;
             void f(void) { e = &v; d = e; c = d; b = c; a = b; }",
        );
    }

    #[test]
    fn indirect_calls() {
        check_matches_oracle(
            "int x;
             int *id(int *a) { return a; }
             int *(*fp)(int *);
             int *r;
             void main_(void) { fp = id; r = fp(&x); }",
        );
    }

    #[test]
    fn multiple_targets_through_pointer() {
        check_matches_oracle(
            "int a, b, c, *p, **pp;
             void f(void) { p = &a; pp = &p; *pp = &b; *pp = &c; }",
        );
    }

    #[test]
    fn ablation_configs_agree() {
        let src = "int v, w, *a, *b, *c, **pp;
                   void f(void) { a = b; b = c; c = a; a = &v; pp = &a; *pp = &w; b = *pp; }";
        let unit = unit_of(src);
        let reference = solve_oracle(&unit);
        for (cache, cycle) in [(true, true), (true, false), (false, true), (false, false)] {
            let (got, _) = solve_unit(
                &unit,
                SolveOptions {
                    cache,
                    cycle_elim: cycle,
                },
            );
            for (obj, set) in reference.iter() {
                assert_eq!(
                    got.points_to(obj),
                    set,
                    "cache={cache} cycle={cycle} object {}",
                    unit.object(obj).name
                );
            }
        }
    }

    #[test]
    fn database_mode_matches_unit_mode() {
        let src = "int x, y;
                   int *p, *q, **pp;
                   int *getp(void) { return &x; }
                   void f(void) { p = getp(); pp = &p; *pp = &y; q = *pp; }";
        let unit = unit_of(src);
        let db = Database::open(cla_cladb::write_object(&unit)).unwrap();
        let (from_unit, _) = solve_unit(&unit, SolveOptions::default());
        let (from_db, _) = solve_database(&db, SolveOptions::default());
        assert_eq!(from_unit, from_db);
        // Demand loading must not have read every assignment eagerly
        // unless everything was relevant.
        let ls = db.load_stats();
        assert!(ls.assigns_loaded <= 2 * ls.assigns_in_file);
    }

    #[test]
    fn demand_loading_skips_irrelevant_blocks() {
        // A large clump of integer-only code whose blocks must never load.
        let mut src = String::from("int x, *p; void f(void) { p = &x; }\n");
        src.push_str("int i0, i1, i2, i3, i4, i5;\n");
        src.push_str("void g(void) { i0 = i1; i1 = i2; i2 = i3; i3 = i4; i4 = i5; }\n");
        let unit = unit_of(&src);
        let db = Database::open(cla_cladb::write_object(&unit)).unwrap();
        let (pts, _) = solve_database(&db, SolveOptions::default());
        let p = unit.find_object("p").unwrap();
        let x = unit.find_object("x").unwrap();
        assert!(pts.may_point_to(p, x));
        // Only p's own block should have been touched; the i* chain is
        // irrelevant to pointers.
        let ls = db.load_stats();
        assert!(
            ls.assigns_loaded < 3,
            "loaded {} assigns",
            ls.assigns_loaded
        );
    }

    #[test]
    fn stats_reported() {
        let unit = unit_of(
            "int v, *a, *b, *c;
             void f(void) { a = b; b = c; c = a; a = &v; }",
        );
        let (_, stats) = solve_unit(&unit, SolveOptions::default());
        assert!(stats.passes >= 1);
        assert!(stats.getlvals_calls <= 1000);
        assert!(stats.nodes >= unit.objects.len());
        assert!(stats.approx_bytes > 0);
        // The a/b/c cycle must have been collapsed.
        assert!(stats.unifications >= 2);
    }

    #[test]
    fn empty_program() {
        let unit = unit_of("int x;");
        let (pts, stats) = solve_unit(&unit, SolveOptions::default());
        assert_eq!(pts.relations(), 0);
        assert_eq!(stats.edges_added, 0);
    }

    #[test]
    fn warm_outlives_database_and_rematerializes_from_cache() {
        let src = "int x, y, z;
                   int *p, *q, *r, **pp;
                   void f(void) { p = &x; q = &y; pp = &p; *pp = &z; r = *pp; }";
        let unit = unit_of(src);
        let db = Database::open(cla_cladb::write_object(&unit)).unwrap();
        let (batch, _) = solve_database(&db, SolveOptions::default());
        let mut warm = Warm::from_database(&db, SolveOptions::default());
        drop(db); // the warm graph owns no database borrow

        assert_eq!(warm.extract_points_to(&unit.objects), batch);
        // A second read finds every component reached: each of its calls
        // is a cache hit, and nothing else moves.
        let first = warm.stats();
        assert_eq!(warm.extract_points_to(&unit.objects), batch);
        let Graph::Swept(relation) = &warm.graph else {
            panic!("a read leaves the relation")
        };
        let (calls, again) = (relation.calls, warm.stats());
        assert!(calls > 0);
        assert_eq!(
            again,
            SolveStats {
                getlvals_calls: first.getlvals_calls + calls,
                cache_hits: first.cache_hits + calls,
                ..first
            }
        );
    }

    /// A generated program, compiled and linked.
    fn program(files: &[(String, String)]) -> CompiledUnit {
        let mut fs = cla_cfront::MemoryFs::new();
        for (path, text) in files {
            fs.add(path.clone(), text.clone());
        }
        let units: Vec<CompiledUnit> = (files.iter())
            .filter(|(path, _)| path.ends_with(".c"))
            .map(|(path, _)| {
                let (pp, lower) = (Default::default(), LowerOptions::default());
                cla_ir::compile_file(&fs, path, &pp, &lower).unwrap().0
            })
            .collect();
        cla_cladb::link(&units, "a.out").0
    }

    fn ci_small() -> CompiledUnit {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let profile = cla_genc::Profile::load(&root.join("profiles/ci-small.toml")).unwrap();
        let mut files = Vec::new();
        cla_genc::generate_with(&profile, profile.seed, &mut |name, text| {
            files.push((name.to_owned(), text.to_owned()));
            Ok(())
        })
        .unwrap();
        program(&files)
    }

    fn nethack() -> CompiledUnit {
        let spec = cla_workload::by_name("nethack").unwrap();
        program(&cla_workload::generate(spec, &cla_workload::GenOptions::at_scale(0.2)).files)
    }

    /// Two objects share one allocation exactly when their sets are equal.
    fn assert_shared_exactly_when_equal(sets: &[LvalSet], what: &str) {
        let mut held: HashMap<&[ObjId], &LvalSet> = HashMap::new();
        for set in sets {
            let first = *held.entry(set.as_slice()).or_insert(set);
            assert!(
                Arc::ptr_eq(first, set),
                "{what}: equal sets in two allocations"
            );
        }
    }

    /// The threaded sweep answers what the one-thread sweep does, shares
    /// what it shares and counts what it counts: the answer and every
    /// counter are the schedule's to choose, never the thread count's.
    #[test]
    fn sweep_agrees_across_thread_counts() {
        for (name, program) in [("ci-small", ci_small()), ("nethack@0.2", nethack())] {
            let db = Database::open(cla_cladb::write_object(&program)).unwrap();
            let runs = [1, 2, 4].map(|threads| {
                let mut warm = Warm::from_database(&db, SolveOptions::default());
                // Every level with work in it goes to the workers.
                let (sets, counts) = warm.read_out_on(threads, 0, "solve.extract");
                (threads, sets, counts, warm.stats())
            });
            let (_, one, one_counts, one_stats) = &runs[0];
            let same = |c: &SweepCounts| SweepCounts { threads: 0, ..*c };
            for (threads, sets, counts, stats) in &runs {
                let what = format!("{name} on {threads} threads");
                assert_shared_exactly_when_equal(sets, &what);
                assert_eq!(sets, one, "{what}: the sets");
                assert_eq!(stats, one_stats, "{what}: SolveStats");
                assert_eq!(same(counts), same(one_counts), "{what}: the sweep's counts");
                if *threads > 1 {
                    assert!(counts.threads > 1, "{what}: no level split");
                }
            }
            assert!(one_counts.levels > 2, "{name}: {one_counts:?}");
        }
    }

    #[test]
    fn warm_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Warm>();
    }

    #[test]
    fn sealed_is_sync() {
        fn assert_sync<T: Send + Sync>() {}
        assert_sync::<SealedGraph>();
    }

    #[test]
    fn sealed_matches_batch_everywhere() {
        let src = "int x, y, z;
                   int *p, *q, *r, **pp;
                   void f(void) { p = &x; q = &y; pp = &p; *pp = &z; r = *pp; }";
        let unit = unit_of(src);
        let db = Database::open(cla_cladb::write_object(&unit)).unwrap();
        let (batch, _) = solve_database(&db, SolveOptions::default());
        let sealed = Warm::from_database(&db, SolveOptions::default()).seal();
        drop(db);
        for o in 0..unit.objects.len() as u32 {
            assert_eq!(
                sealed.points_to(ObjId(o)),
                batch.points_to(ObjId(o)),
                "object {} diverged",
                unit.objects[o as usize].name
            );
        }
        // Out-of-range ids answer empty instead of panicking.
        assert!(sealed.points_to(ObjId(u32::MAX)).is_empty());
        assert_eq!(sealed.extract_points_to(&unit.objects), batch);
        assert_eq!(sealed.object_count(), unit.objects.len());
        assert!(sealed.approx_bytes() > 0);
        assert!(sealed.stats().getlvals_calls > 0);
    }

    #[test]
    fn sealed_alias_agrees_with_batch_intersection() {
        let src = "int x, y; int *p, *q, *r;
                   void f(void) { p = &x; q = &x; r = &y; }";
        let unit = unit_of(src);
        let (batch, _) = solve_unit(&unit, SolveOptions::default());
        let sealed = Warm::from_unit(&unit, SolveOptions::default()).seal();
        let p = unit.find_object("p").unwrap();
        let q = unit.find_object("q").unwrap();
        let r = unit.find_object("r").unwrap();
        let x = unit.find_object("x").unwrap();
        for (a, b) in [(p, q), (p, r), (p, p), (x, x)] {
            assert_eq!(
                sealed.may_alias(a, b),
                sets_intersect(batch.points_to(a), batch.points_to(b)),
                "alias({a:?},{b:?})"
            );
        }
        assert!(sealed.may_alias(p, q));
        assert!(!sealed.may_alias(p, r));
    }

    #[test]
    fn sealed_scc_members_share_sets() {
        // a/b/c form a copy cycle: after collapse, their sealed sets must be
        // the same allocation, and cross-thread reads need no locks.
        let src = "int v, w, *a, *b, *c;
                   void f(void) { a = b; b = c; c = a; a = &v; c = &w; }";
        let unit = unit_of(src);
        let sealed = std::sync::Arc::new(Warm::from_unit(&unit, SolveOptions::default()).seal());
        let a = unit.find_object("a").unwrap();
        let b = unit.find_object("b").unwrap();
        assert!(std::ptr::eq(sealed.points_to(a), sealed.points_to(b)));
        let (oracle, _) = solve_unit(&unit, SolveOptions::default());
        let n_objects = unit.objects.len() as u32;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let sealed = std::sync::Arc::clone(&sealed);
                let oracle = &oracle;
                scope.spawn(move || {
                    for _ in 0..100 {
                        for o in 0..n_objects {
                            assert_eq!(sealed.points_to(ObjId(o)), oracle.points_to(ObjId(o)));
                        }
                        assert!(sealed.may_alias(a, b));
                    }
                });
            }
        });
    }
}
