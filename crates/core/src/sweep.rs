//! The sweep that reads a solved graph out as the relation (paper §5: "it
//! is typically much cheaper to compute all lvals for all nodes when the
//! algorithm terminates").
//!
//! After the fixpoint's last pass no edge is added and no block is loaded:
//! what is left is reachability over a fixed graph. [`Frozen`] is that
//! graph — every node's representative with the skip pointers flattened, a
//! CSR of the copy edges between representatives, and each
//! representative's base lvals — and [`Frozen::sweep`] reads it out in two
//! steps:
//!
//! 1. **Condense.** One iterative Tarjan pass from the active
//!    representatives of the objects, in object-id order: the order the
//!    sweep over the mutating `getLvals` asked in, so the counters it
//!    reports are the ones those calls counted (a call whose component an
//!    earlier call reached was a cache hit; every node reached was one DFS
//!    visit; every component of `k` nodes was `k - 1` unifications).
//!    Components come out in reverse topological order, and a component's
//!    level is one more than the highest level among its successors.
//! 2. **Materialise, level by level.** A level's components depend only on
//!    lower levels, so they are joined on scoped threads, each by one
//!    [`LvalStore::join`] of its successors' sets and its members' base
//!    lvals, and a written set is entered into a store sharded by content
//!    hash: equal content is one `Arc`, whatever the schedule. Levels with
//!    little work run on the calling thread.
//!
//! The join's largest part depends on neither schedule nor address, so
//! every count the sweep reports repeats run to run and thread count to
//! thread count.

use crate::solution::LvalSet;
use crate::store::{content_key, enter, Joined, LvalStore, Sets, UnionLedger};
use cla_ir::ObjId;
use std::borrow::Borrow;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

/// A node no component holds yet; an object whose set is empty.
const NONE: u32 = u32::MAX;

/// Levels whose operands add up to fewer lvals than this run on the
/// calling thread alone: starting a worker would cost about as much as
/// joining them. A worker claims the next components of a level until
/// their operands add up to half as many — one component when it alone
/// does — so a level that runs threaded has two claims at least.
pub(crate) const INLINE_BELOW: usize = 1 << 15;

/// The solved graph after its last pass: nothing in it changes again.
pub(crate) struct Frozen {
    /// Every node's representative.
    rep: Vec<u32>,
    /// Whether a representative's points-to set may be non-empty.
    active: Vec<bool>,
    /// The copy edges out of representative `u`, as representatives:
    /// `succ[first[u]..first[u + 1]]`.
    first: Vec<u32>,
    succ: Vec<u32>,
    /// Each representative's base lvals, sorted.
    base: Vec<Vec<ObjId>>,
    /// The one empty set.
    empty: LvalSet,
    n_objects: usize,
}

/// What a sweep counted, in the terms of the `getLvals` calls it stands for
/// (see the module documentation), and how it ran.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SweepCounts {
    /// Objects whose representative is active.
    pub calls: u64,
    /// Calls whose component an earlier call reached.
    pub hits: u64,
    /// Nodes reached.
    pub visits: u64,
    /// Nodes reached beyond one a component.
    pub unifications: u64,
    /// The joins, one a reached component.
    pub ledger: UnionLedger,
    /// Bytes of the distinct sets, each counted once.
    pub set_bytes: usize,
    /// Levels of the condensation.
    pub levels: usize,
    /// The most threads any level ran on: more than one when a level
    /// split.
    pub threads: usize,
}

/// The relation a sweep read out: the distinct sets, each held by the
/// component that entered it, and for each object the component holding
/// its set.
pub(crate) struct Relation {
    /// `NONE` where the object's set is empty.
    of_object: Vec<u32>,
    sets: Vec<Option<LvalSet>>,
    empty: LvalSet,
    /// Objects with a component: what a repeated read counts as calls.
    pub calls: u64,
}

impl Relation {
    /// Every object's set, in id order; objects of one set share its `Arc`.
    pub fn per_object(&self) -> Vec<LvalSet> {
        (self.of_object.iter())
            .map(|&c| match c {
                NONE => LvalSet::clone(&self.empty),
                c => LvalSet::clone(self.sets[c as usize].as_ref().expect("a holder")),
            })
            .collect()
    }
}

/// The condensation of the nodes a sweep reaches, components in level
/// order.
struct Condensation {
    /// The components `c` has edges to, all of lower levels:
    /// `succ[first[c]..first[c + 1]]`.
    first: Vec<u32>,
    succ: Vec<u32>,
    /// The base lvals of `c`'s nodes, sorted where `c` is one node:
    /// `raw[at[c]..at[c + 1]]`.
    at: Vec<u32>,
    raw: Vec<ObjId>,
    /// Level `l` is the components `levels[l]..levels[l + 1]`.
    levels: Vec<u32>,
    /// Each object's component, `NONE` where its representative is inactive.
    of_object: Vec<u32>,
}

/// Iterative Tarjan over the frozen CSR. Components are numbered in the
/// order they complete, which is reverse topological.
struct Tarjan<'g> {
    g: &'g Frozen,
    /// 1-based preorder index, 0 while unvisited.
    index: Vec<u32>,
    low: Vec<u32>,
    /// The component of each finished node.
    comp: Vec<u32>,
    next: u32,
    stack: Vec<u32>,
    /// Open frames: (node, next edge).
    frames: Vec<(u32, u32)>,
    /// Completed components: members, successors and level.
    at: Vec<u32>,
    members: Vec<u32>,
    first: Vec<u32>,
    succ: Vec<u32>,
    level: Vec<u32>,
    /// `listed[c] == e + 1`: component `e` already lists `c`.
    listed: Vec<u32>,
}

impl Tarjan<'_> {
    fn visit(&mut self, v: u32) {
        self.next += 1;
        self.index[v as usize] = self.next;
        self.low[v as usize] = self.next;
        self.stack.push(v);
        self.frames.push((v, self.g.first[v as usize]));
    }

    /// Finishes every node reachable from `r`.
    fn reach(&mut self, r: u32, counts: &mut SweepCounts) {
        self.visit(r);
        while let Some(top) = self.frames.last_mut() {
            let (v, edge) = *top;
            let vi = v as usize;
            if edge < self.g.first[vi + 1] {
                top.1 += 1;
                let w = self.g.succ[edge as usize] as usize;
                if self.index[w] == 0 {
                    self.visit(w as u32);
                } else if self.comp[w] == NONE {
                    self.low[vi] = self.low[vi].min(self.index[w]);
                }
                continue;
            }
            self.frames.pop();
            if let Some(&(p, _)) = self.frames.last() {
                self.low[p as usize] = self.low[p as usize].min(self.low[vi]);
            }
            if self.low[vi] == self.index[vi] {
                self.complete(v, counts);
            }
        }
    }

    /// Pops the component rooted at `v` and lists its successors.
    fn complete(&mut self, v: u32, counts: &mut SweepCounts) {
        let e = self.level.len() as u32;
        let from = self.members.len();
        loop {
            let m = self.stack.pop().expect("the root is on the stack");
            self.comp[m as usize] = e;
            self.members.push(m);
            if m == v {
                break;
            }
        }
        let size = (self.members.len() - from) as u64;
        counts.visits += size;
        counts.unifications += size - 1;
        self.listed.push(0);
        let mut level = 0;
        for &m in &self.members[from..] {
            let m = m as usize;
            let edges = self.g.first[m] as usize..self.g.first[m + 1] as usize;
            for &w in &self.g.succ[edges] {
                let c = self.comp[w as usize];
                if c != e && self.listed[c as usize] != e + 1 {
                    self.listed[c as usize] = e + 1;
                    self.succ.push(c);
                    level = level.max(self.level[c as usize] + 1);
                }
            }
        }
        self.level.push(level);
        self.at.push(self.members.len() as u32);
        self.first.push(self.succ.len() as u32);
    }
}

/// The set store the workers of a sweep share: each distinct set, under its
/// content hash in the shard that hash picks, with the component that
/// entered it. Equal content is one allocation whichever worker enters it
/// first.
struct SetShards([Shard; 64]);

/// One shard, alone on its cache lines: workers locking neighbouring
/// shards do not contend.
#[repr(align(128))]
#[derive(Default)]
struct Shard(Mutex<Sets>);

impl Default for SetShards {
    fn default() -> Self {
        SetShards(std::array::from_fn(|_| Shard::default()))
    }
}

impl SetShards {
    /// The component holding `set`'s content: `c` with the allocation it
    /// now holds, or the component that entered it first.
    fn enter(&self, set: Vec<ObjId>, c: u32, ledger: &mut UnionLedger) -> Holding {
        let key = content_key(&set);
        let shard = &self.0[(key >> 58) as usize].0;
        let mut sets = shard.lock().expect("no worker panics holding a shard");
        let ((held, holder), new) = enter(&mut sets, key, set, c, ledger);
        (*holder, new.then(|| LvalSet::clone(held)))
    }

    /// Bytes of the sets entered, each counted once.
    fn bytes(&mut self) -> usize {
        let sets = (self.0.iter_mut()).flat_map(|shard| {
            let sets = shard.0.get_mut().expect("no worker panics holding a shard");
            sets.values().map(|(set, _)| set.capacity())
        });
        sets.sum::<usize>() * std::mem::size_of::<ObjId>()
    }
}

/// What the workers of one level share: everything about the lower levels.
///
/// A component's result is its holder — itself when it entered a new set,
/// the component that entered an equal one, or its largest part's holder
/// when that part is the answer — so no worker clones or drops a set
/// another may be reading: a shared set's reference count never moves
/// between cores.
struct Level<'a> {
    cond: &'a Condensation,
    /// Each lower component's holder, `NONE` for the empty set.
    holder: &'a [u32],
    /// The sets of the lower holders.
    sets: &'a [Option<LvalSet>],
    shards: &'a SetShards,
}

/// A component's result: its holder, and its set when it is the holder.
type Holding = (u32, Option<LvalSet>);

/// A lower component's set as a part of a join, with its holder.
struct Part<'a> {
    set: &'a LvalSet,
    holder: u32,
}

impl Borrow<Vec<ObjId>> for Part<'_> {
    fn borrow(&self) -> &Vec<ObjId> {
        self.set
    }
}

impl<'a> Level<'a> {
    /// Component `s`'s set, `None` when it is empty.
    fn part(&self, s: u32) -> Option<Part<'a>> {
        match self.holder[s as usize] {
            NONE => None,
            h => (self.sets[h as usize].as_ref()).map(|set| Part { set, holder: h }),
        }
    }

    /// The lvals component `c`'s union reads: its successors' sets and its
    /// members' bases.
    fn work(&self, c: usize) -> usize {
        let cond = self.cond;
        let succ = &cond.succ[cond.first[c] as usize..cond.first[c + 1] as usize];
        let raw = (cond.at[c + 1] - cond.at[c]) as usize;
        (succ.iter())
            .map(|&s| self.part(s).map_or(0, |p| p.set.len()))
            .sum::<usize>()
            + raw
    }
}

/// One thread's join scratch and ledger, alone on its cache lines: each
/// join writes the ledger and the scratch lengths, and a neighbour's writes
/// would bounce them between cores.
#[repr(align(128))]
#[derive(Default)]
struct Worker {
    store: LvalStore,
}

impl Worker {
    /// Joins the components of the claims `next` hands out — claim `k` is
    /// `claims[k]..claims[k + 1]` — until they run out, and `put`s each
    /// component's result.
    fn drain(
        &mut self,
        level: &Level<'_>,
        claims: &[usize],
        next: &AtomicUsize,
        put: &mut impl FnMut(usize, Holding),
    ) {
        let mut parts = Vec::new();
        loop {
            let k = next.fetch_add(1, Relaxed);
            let Some(claim) = claims.get(k..k + 2) else {
                return;
            };
            for c in claim[0]..claim[1] {
                put(c, self.join(level, c, &mut parts));
            }
        }
    }

    /// Component `c`'s set: its successors' sets and its members' bases.
    fn join<'a>(&mut self, level: &Level<'a>, c: usize, parts: &mut Vec<Part<'a>>) -> Holding {
        let cond = level.cond;
        parts.clear();
        let succ = &cond.succ[cond.first[c] as usize..cond.first[c + 1] as usize];
        parts.extend(succ.iter().filter_map(|&s| level.part(s)));
        let raw = &cond.raw[cond.at[c] as usize..cond.at[c + 1] as usize];
        match self.store.join(parts, raw) {
            Joined::Written(set) => level.shards.enter(set, c as u32, &mut self.store.ledger),
            Joined::Operand(big) => {
                self.store.ledger.shared += 1;
                (big.holder, None)
            }
            Joined::Empty => (NONE, None),
        }
    }
}

impl Frozen {
    /// Freezes a solved graph: `skip` flattened to representatives, `out`
    /// the copy edges of each node (empty for a node unified away).
    pub(crate) fn new(
        rep: Vec<u32>,
        active: Vec<bool>,
        out: &[Vec<u32>],
        base: Vec<Vec<ObjId>>,
        empty: LvalSet,
        n_objects: usize,
    ) -> Frozen {
        let mut first = Vec::with_capacity(out.len() + 1);
        let mut succ = Vec::with_capacity(out.iter().map(Vec::len).sum());
        first.push(0);
        for (u, edges) in out.iter().enumerate() {
            let targets = edges.iter().map(|&v| rep[v as usize]);
            succ.extend(targets.filter(|&s| s as usize != u));
            first.push(succ.len() as u32);
        }
        Frozen {
            rep,
            active,
            first,
            succ,
            base,
            empty,
            n_objects,
        }
    }

    /// Reads every object's set out on up to `threads` threads; levels whose
    /// unions read fewer than `inline_below` lvals run on the calling
    /// thread.
    pub(crate) fn sweep(&self, threads: usize, inline_below: usize) -> (Relation, SweepCounts) {
        let mut counts = SweepCounts::default();
        let cond = self.condense(&mut counts);
        let (holder, sets) = self.materialise(&cond, threads.max(1), inline_below, &mut counts);
        let of_object = (cond.of_object.iter())
            .map(|&c| match c {
                NONE => NONE,
                c => holder[c as usize],
            })
            .collect();
        let relation = Relation {
            of_object,
            sets,
            empty: LvalSet::clone(&self.empty),
            calls: counts.calls,
        };
        (relation, counts)
    }

    /// Step 1: the condensation of everything the objects reach.
    fn condense(&self, counts: &mut SweepCounts) -> Condensation {
        let n = self.rep.len();
        let mut t = Tarjan {
            g: self,
            index: vec![0; n],
            low: vec![0; n],
            comp: vec![NONE; n],
            next: 0,
            stack: Vec::new(),
            frames: Vec::new(),
            at: vec![0],
            members: Vec::with_capacity(n),
            first: vec![0],
            succ: Vec::new(),
            level: Vec::new(),
            listed: Vec::new(),
        };
        for &r in &self.rep[..self.n_objects] {
            if !self.active[r as usize] {
                continue;
            }
            counts.calls += 1;
            if t.index[r as usize] != 0 {
                counts.hits += 1;
            } else {
                t.reach(r, counts);
            }
        }

        // Renumber the components by level, keeping completion order within
        // one: `pos[e]` is component `e`'s place.
        let n_levels = t.level.iter().max().map_or(0, |&l| l as usize + 1);
        let mut levels = vec![0u32; n_levels + 1];
        for &l in &t.level {
            levels[l as usize + 1] += 1;
        }
        for l in 0..n_levels {
            levels[l + 1] += levels[l];
        }
        let mut fill = levels.clone();
        let mut order = vec![0u32; t.level.len()];
        let pos: Vec<u32> = (t.level.iter().enumerate())
            .map(|(e, &l)| {
                let p = fill[l as usize];
                fill[l as usize] += 1;
                order[p as usize] = e as u32;
                p
            })
            .collect();
        let mut first = Vec::with_capacity(order.len() + 1);
        let mut succ = Vec::with_capacity(t.succ.len());
        let mut at = Vec::with_capacity(order.len() + 1);
        let mut raw = Vec::new();
        first.push(0);
        at.push(0);
        for &e in &order {
            let e = e as usize;
            let edges = &t.succ[t.first[e] as usize..t.first[e + 1] as usize];
            succ.extend(edges.iter().map(|&s| pos[s as usize]));
            first.push(succ.len() as u32);
            for &m in &t.members[t.at[e] as usize..t.at[e + 1] as usize] {
                raw.extend_from_slice(&self.base[m as usize]);
            }
            at.push(raw.len() as u32);
        }
        let of_object = (self.rep[..self.n_objects].iter())
            .map(|&r| match t.comp[r as usize] {
                _ if !self.active[r as usize] => NONE,
                e => pos[e as usize],
            })
            .collect();
        counts.levels = n_levels;
        Condensation {
            first,
            succ,
            at,
            raw,
            levels,
            of_object,
        }
    }

    /// Step 2: every component's holder and the holders' sets, lower
    /// levels first.
    fn materialise(
        &self,
        cond: &Condensation,
        threads: usize,
        inline_below: usize,
        counts: &mut SweepCounts,
    ) -> (Vec<u32>, Vec<Option<LvalSet>>) {
        let mut shards = SetShards::default();
        let mut workers: Vec<Worker> = (0..threads).map(|_| Worker::default()).collect();
        let n = cond.at.len() - 1;
        let (mut holder, mut sets) = (vec![NONE; n], vec![None; n]);
        for bounds in cond.levels.windows(2) {
            let (lo, hi) = (bounds[0] as usize, bounds[1] as usize);
            let (holder, out_holder) = holder.split_at_mut(lo);
            let (sets, out_sets) = sets.split_at_mut(lo);
            let (out_holder, out_sets) = (&mut out_holder[..hi - lo], &mut out_sets[..hi - lo]);
            let level = Level {
                cond,
                holder,
                sets,
                shards: &shards,
            };
            let (me, others) = workers.split_first_mut().expect("one worker at least");
            // The level cut, in order, into claims of about half
            // `inline_below` lvals each: a worker's components lie side by
            // side.
            let (mut claims, mut work) = (vec![lo], 0);
            if !others.is_empty() {
                let mut claimed = 0;
                for c in lo..hi {
                    claimed += level.work(c);
                    if claimed >= inline_below / 2 {
                        claims.push(c + 1);
                        (work, claimed) = (work + claimed, 0);
                    }
                }
                work += claimed;
            }
            // This thread puts its results in place; a helper's come back
            // in a list.
            let next = AtomicUsize::new(0);
            let mut put = |c: usize, (h, set): Holding| {
                (out_holder[c - lo], out_sets[c - lo]) = (h, set);
            };
            // A level with little work is the same claim loop, on this
            // thread alone and over one claim.
            if work < inline_below.max(1) {
                me.drain(&level, &[lo, hi], &next, &mut put);
                counts.threads = counts.threads.max(1);
                continue;
            }
            if claims.last() != Some(&hi) {
                claims.push(hi);
            }
            let helpers = others.len().min(claims.len() - 2);
            std::thread::scope(|scope| {
                let (level, claims, next) = (&level, &claims, &next);
                let spawned: Vec<_> = (others[..helpers].iter_mut())
                    .map(|w| {
                        scope.spawn(move || {
                            let mut joined = Vec::new();
                            w.drain(level, claims, next, &mut |c, h| joined.push((c, h)));
                            joined
                        })
                    })
                    .collect();
                me.drain(level, claims, next, &mut put);
                for h in spawned {
                    let joined = h.join().expect("a sweep worker panicked");
                    joined.into_iter().for_each(|(c, h)| put(c, h));
                }
            });
            counts.threads = counts.threads.max(helpers + 1);
        }
        for w in &workers {
            counts.ledger += w.store.ledger;
        }
        counts.set_bytes = shards.bytes();
        (holder, sets)
    }
}
