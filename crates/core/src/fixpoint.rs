//! The fixpoint half of the pre-transitive solver (paper §5, Figure 5):
//! the graph grows until a pass adds nothing, then freezes.
//!
//! Two optimizations make the iteration practical (the paper measures a
//! >50,000× slowdown with both off):
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
//! The solver runs from a fully decoded [`CompiledUnit`], or directly from a
//! [`Database`] with CLA demand loading: an object's assignment block is
//! fetched only when its points-to set first becomes (potentially)
//! non-empty, and `x = y` / `x = &y` records are discarded immediately after
//! being integrated into the graph (the paper's load-and-throw-away
//! strategy); only complex assignments stay in core. At fixpoint the graph
//! freezes into a [`Frozen`] one that owns no database borrow.

use crate::pretransitive::{SolveOptions, SolveStats};
use crate::solution::LvalSet;
use crate::store::{Joined, LvalStore};
use crate::sweep::Frozen;
use cla_cladb::Database;
use cla_ir::{AssignKind, CompiledUnit, FunSig, ObjId, PrimAssign};
use std::collections::HashMap;
use std::sync::Arc;

/// Solves `unit` to fixpoint and freezes the graph.
pub(crate) fn of_unit(unit: &CompiledUnit, opts: SolveOptions) -> (Frozen, SolveStats) {
    let mut sp = cla_obs::global().span("solve", "solve.fixpoint");
    sp.set("mode", "unit");
    let mut g = GraphState::new(None, unit.objects.len(), opts);
    g.register_sigs(&unit.funsigs);
    for a in &unit.assigns {
        g.add_assign(a);
    }
    g.run(&mut sp);
    freeze(g, unit.objects.len())
}

/// Solves `db` to fixpoint with demand loading and freezes the graph.
pub(crate) fn of_database(db: &Database, opts: SolveOptions) -> (Frozen, SolveStats) {
    let mut sp = cla_obs::global().span("solve", "solve.fixpoint");
    sp.set("mode", "database");
    let mut g = GraphState::new(Some(db), db.object_count(), opts);
    g.register_sigs(db.funsigs());
    // The static section (x = &y) is the starting point and is always
    // loaded (paper §4).
    for a in &db.static_assigns().expect("valid database") {
        g.add_assign(a);
    }
    g.run(&mut sp);
    // Reading the stats also publishes the demand-load deltas to the
    // global metrics registry (see `Database::load_stats`), so serve
    // sessions get fresh counters without touching the fetch hot path.
    let _ = db.load_stats();
    sp.set("blocks_loaded", g.blocks_loaded);
    freeze(g, db.object_count())
}

/// Keeps what the sweep reads of the solved graph — representatives, copy
/// edges, base lvals, activity — and drops the rest: the edge set, the
/// waiters, the caches, the deref map and the traversal scratch.
fn freeze(mut g: GraphState<'_>, n_objects: usize) -> (Frozen, SolveStats) {
    for n in 0..g.skip.len() as u32 {
        g.find(n);
    }
    let mut stats = g.stats;
    stats.sets_shared = g.store.ledger.shared;
    stats.complex_in_core = g.complex.len();
    stats.nodes = g.skip.len();
    stats.approx_bytes = g.graph_bytes();
    let empty = LvalSet::clone(&g.store.empty);
    let frozen = Frozen::new(g.skip, g.active, &g.out, g.base, empty, n_objects);
    (frozen, stats)
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

/// The fixpoint's state: the pre-transitive graph, demand-loading
/// bookkeeping, complex-assignment residue and the reachability caches,
/// beside the database a demand-driven solve loads its blocks from.
#[derive(Default)]
struct GraphState<'db> {
    opts: SolveOptions,
    /// Where blocks load from on demand; `None` for a fully loaded unit.
    db: Option<&'db Database>,
    /// Cached handle: demand-loaded blocks dropped after integration
    /// (load-and-throw-away), mirrored into the global metric registry.
    obs_blocks_discarded: cla_obs::Counter,

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

impl<'db> GraphState<'db> {
    /// Loads the assignment blocks of every newly activated object
    /// (demand-driven loading). No-op when solving a fully loaded unit.
    fn drain_activations(&mut self) {
        let Some(db) = self.db else {
            self.act_queue.clear();
            return;
        };
        while let Some(n) = self.act_queue.pop() {
            // The node's own block first, then those of the objects unified
            // into it (temporaries have no block and are born `loaded`).
            let merged = std::mem::take(&mut self.node_objs[n as usize]);
            for o in std::iter::once(n).chain(merged) {
                if self.loaded[o as usize] {
                    continue;
                }
                self.loaded[o as usize] = true;
                self.blocks_loaded += 1;
                let block = db.block(ObjId(o)).expect("valid database");
                for a in &block {
                    self.add_assign(a);
                }
                // The decoded block is dropped here: load-and-throw-away.
                self.obs_blocks_discarded.inc();
            }
        }
    }

    /// One pass of the iteration algorithm. Returns true when anything
    /// changed (edges added or new blocks loaded).
    fn pass(&mut self) -> bool {
        let edges_before = self.stats.edges_added;
        let loads_before = self.blocks_loaded;
        self.next_epoch();
        self.drain_activations();

        let mut i = 0;
        while i < self.complex.len() {
            // `*x = y` adds z ⊇ y and `x = *y` adds n_*y ⊇ z, for every
            // z in pts(x) and pts(y) respectively.
            let (ptr, other, store) = match self.complex[i] {
                Complex::Store { x, y } => (x, y, true),
                Complex::Load { yderef, y } => (y, yderef, false),
            };
            let ptr = self.find(ptr);
            if self.active[ptr as usize] {
                for z in self.get_lvals(ptr).iter() {
                    let (u, v) = if store { (z.0, other) } else { (other, z.0) };
                    self.add_edge(u, v);
                }
            }
            if !self.act_queue.is_empty() {
                self.drain_activations();
            }
            i += 1;
        }

        // Indirect calls: for every function lval g in pts(fp), link
        // g$i ⊇ fp$i and fp$ret ⊇ g$ret (paper §4).
        for i in 0..self.indirect.len() {
            let fp = self.find(self.indirect[i].fp);
            if !self.active[fp as usize] {
                continue;
            }
            for gfun in self.get_lvals(fp).iter() {
                let Some((gparams, gret)) = self.direct_sigs.get(&gfun.0).cloned() else {
                    continue;
                };
                for (k, &gp) in gparams.iter().enumerate() {
                    let Some(&fp_param) = self.indirect[i].params.get(k) else {
                        break;
                    };
                    self.add_edge(gp, fp_param);
                }
                self.add_edge(self.indirect[i].ret, gret);
            }
            if !self.act_queue.is_empty() {
                self.drain_activations();
            }
        }

        self.stats.edges_added != edges_before || self.blocks_loaded != loads_before
    }

    /// Passes until one changes nothing; `fixpoint` gets the totals.
    fn run(&mut self, fixpoint: &mut cla_obs::Span<'_>) {
        let obs = cla_obs::global();
        loop {
            self.stats.passes += 1;
            let before = self.stats;
            let loads_before = self.blocks_loaded;
            let unions_before = self.store.ledger;
            let mut sp = obs.span("solve", "solve.pass");
            sp.set("pass", self.stats.passes);
            let changed = self.pass();
            // Per-pass deltas make the cache-decay curve across passes
            // (Figure 5) directly visible in a trace.
            let st = self.stats;
            sp.set("getlvals_calls", st.getlvals_calls - before.getlvals_calls);
            sp.set("cache_hits", st.cache_hits - before.cache_hits);
            sp.set("unifications", st.unifications - before.unifications);
            sp.set("edges_added", st.edges_added - before.edges_added);
            sp.set("blocks_loaded", self.blocks_loaded - loads_before);
            self.store.ledger.publish_since(unions_before, &mut sp);
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
        fixpoint.set("passes", self.stats.passes);
        fixpoint.set("edges_added", self.stats.edges_added);
    }

    fn new(db: Option<&'db Database>, n_objects: usize, opts: SolveOptions) -> Self {
        let mut g = GraphState {
            opts,
            db,
            obs_blocks_discarded: cla_obs::global().counter("cla_db_blocks_discarded_total"),
            ..GraphState::default()
        };
        // A demand-driven solve owes each object its block until it loads.
        g.grow(n_objects, db.is_none());
        g
    }

    /// Grows every per-node vector to `n` nodes, each new one its own
    /// representative, inactive, and `loaded` or owing its block. A vector
    /// still empty is allocated whole, zeroed where its value is zero, so
    /// the pages no node touches cost no memory.
    fn grow(&mut self, n: usize, loaded: bool) {
        fn to<T: Clone>(v: &mut Vec<T>, n: usize, x: T) {
            match v.is_empty() {
                true => *v = vec![x; n],
                false => v.resize(n, x),
            }
        }
        self.skip.extend(self.skip.len() as u32..n as u32);
        to(&mut self.out, n, Vec::new());
        to(&mut self.base, n, Vec::new());
        to(&mut self.active, n, false);
        to(&mut self.pending, n, Vec::new());
        to(&mut self.node_objs, n, Vec::new());
        to(&mut self.loaded, n, loaded);
        to(&mut self.cache_epoch, n, 0);
        to(&mut self.cache, n, None);
        to(&mut self.visit_call, n, 0);
        to(&mut self.index, n, 0);
        to(&mut self.lowlink, n, 0);
        to(&mut self.on_stack, n, false);
    }

    fn new_node(&mut self) -> u32 {
        let id = self.skip.len();
        self.grow(id + 1, true);
        id as u32
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
        self.store.clear();
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
                        let low = self.lowlink[n as usize].min(self.index[s as usize]);
                        self.lowlink[n as usize] = low;
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
                let low = self.lowlink[pn as usize].min(self.lowlink[n as usize]);
                self.lowlink[pn as usize] = low;
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
    ///
    /// What the walk gathers is joined once at the end: the cached sets it
    /// meets are the parts, the bases of the nodes it visits the raw lvals.
    fn plain_dfs_lvals(&mut self, start: u32) -> LvalSet {
        // Frames: (node, next edge index). `on_stack` is the onPath bit.
        let mut frames: Vec<(u32, usize)> = Vec::new();
        self.on_stack[start as usize] = true;
        self.stats.dfs_visits += 1;
        self.raw.extend_from_slice(&self.base[start as usize]);
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
                self.parts.push(Arc::clone(self.cached(s)));
                continue;
            }
            self.on_stack[s as usize] = true;
            self.stats.dfs_visits += 1;
            self.raw.extend_from_slice(&self.base[s as usize]);
            frames.push((s, 0));
        }
        let set = self.store.union(&mut self.parts, &self.raw);
        self.parts.clear();
        self.raw.clear();
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
        // The merged base is the graph's own, handed out as no answer: a
        // join, and nothing shared.
        let ubase = std::mem::take(&mut self.base[u as usize]);
        if let Joined::Written(merged) = self.store.join(&mut [&self.base[v as usize]], &ubase) {
            self.base[v as usize] = merged;
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
        fn lists<T>(lists: &[Vec<T>]) -> usize {
            lists.iter().map(|v| v.capacity() * size_of::<T>()).sum()
        }
        let nodes = self.skip.len();
        // Per-node cache entries are Arc references.
        let cache_bytes = self.cache.len() * size_of::<LvalSet>();
        nodes * (size_of::<u32>() * 5 + size_of::<bool>() * 2)
            + lists(&self.out)
            + lists(&self.base)
            + lists(&self.pending)
            + cache_bytes
            + self.edge_set.capacity() * size_of::<u64>()
            + self.complex.len() * size_of::<Complex>()
    }
}
