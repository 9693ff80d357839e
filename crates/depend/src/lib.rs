//! # cla-depend — forward data-dependence analysis
//!
//! The paper's motivating application (Section 2): given a *target* object
//! whose type must change (say `short` → `int`), find every object that can
//! receive values from it — the objects whose types may also need to
//! change to avoid data loss through implicit narrowing conversions.
//!
//! The analysis runs forward over the primitive-assignment database, using
//! the points-to results to resolve stores and loads, and ranks dependents
//! by the *importance* of their best dependence chain: chains made only of
//! shape-preserving operations (Table 1 "strong") outrank chains passing
//! through range-changing ones ("weak"); among equally important chains the
//! shortest wins. User-declared *non-targets* prune the search.
//!
//! ```
//! use cla_ir::{compile_source, LowerOptions};
//! use cla_core::{solve_unit, SolveOptions};
//! use cla_depend::{DependenceAnalysis, DependOptions};
//! use cla_cladb::{write_object, Database};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let unit = compile_source(
//!     "short target, x, y; void f(void) { x = target; y = x; }",
//!     "a.c", &LowerOptions::default())?;
//! let db = Database::open(write_object(&unit))?;
//! let (pts, _) = cla_core::solve_unit(&unit, SolveOptions::default());
//! let dep = DependenceAnalysis::new(&db, &pts);
//! let report = dep.analyze("target", &DependOptions::default()).unwrap();
//! assert_eq!(report.dependents().len(), 2); // x and y
//! # Ok(())
//! # }
//! ```

use cla_cladb::{Database, DbError};
use cla_core::{PointsTo, PointsToQuery};
use cla_ir::{AssignKind, ObjId, OpKind, SrcLoc, Strength};
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::OnceLock;

/// Options controlling a dependence query.
#[derive(Debug, Clone, Default)]
pub struct DependOptions {
    /// Objects (by display name) the user asserts are *not* dependent on
    /// the target; the search will not enter or pass through them
    /// (paper §2's very effective focusing mechanism).
    pub non_targets: Vec<String>,
}

/// Cost of a dependence chain: weak links first, then length.
/// Lower is more important.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ChainCost {
    /// Number of weak (range-changing) operations on the chain.
    pub weak_links: u32,
    /// Number of assignments on the chain.
    pub length: u32,
}

impl ChainCost {
    /// The zero cost (the target itself).
    pub const ZERO: ChainCost = ChainCost {
        weak_links: 0,
        length: 0,
    };

    fn step(self, s: Strength) -> ChainCost {
        ChainCost {
            weak_links: self.weak_links + u32::from(s == Strength::Weak),
            length: self.length + 1,
        }
    }

    /// The composite strength of a chain with this cost.
    pub fn strength(&self) -> Strength {
        if self.weak_links == 0 {
            Strength::Strong
        } else {
            Strength::Weak
        }
    }
}

/// One dependent object with the quality of its best chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dependent {
    pub obj: ObjId,
    pub cost: ChainCost,
}

/// One step of a rendered dependence chain.
#[derive(Debug, Clone, Copy)]
pub struct ChainStep {
    /// The object receiving the value at this step.
    pub obj: ObjId,
    /// The assignment that carried it (None for the chain's start).
    pub via: Option<EdgeInfo>,
}

/// The assignment behind one dependence edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeInfo {
    pub strength: Strength,
    pub op: OpKind,
    pub loc: SrcLoc,
}

/// The result of one dependence query.
#[derive(Debug)]
pub struct DependReport {
    /// The target objects (several when the name is ambiguous).
    pub targets: Vec<ObjId>,
    dependents: Vec<Dependent>,
    /// Every object the walk reached, the targets included.
    reached: HashMap<ObjId, Reached>,
}

/// What the walk knows about one reached object.
#[derive(Debug, Clone, Copy)]
struct Reached {
    cost: ChainCost,
    /// Best-chain predecessor (source obj, edge); `None` for a target.
    parent: Option<(ObjId, EdgeInfo)>,
}

impl DependReport {
    /// Dependents sorted by priority: strong short chains first
    /// (paper §2's prioritization for sifting large result sets).
    pub fn dependents(&self) -> &[Dependent] {
        &self.dependents
    }

    /// The best dependence chain from `obj` back to a target, starting at
    /// `obj`.
    pub fn chain(&self, obj: ObjId) -> Vec<ChainStep> {
        let mut steps = Vec::new();
        let mut cur = obj;
        let mut via = None;
        let mut guard = 0;
        loop {
            steps.push(ChainStep { obj: cur, via });
            match self.parent(cur) {
                Some((src, edge)) => {
                    via = Some(edge);
                    cur = src;
                }
                None => break,
            }
            guard += 1;
            assert!(guard <= self.reached.len() + 1, "cycle in chain parents");
        }
        steps
    }

    fn parent(&self, obj: ObjId) -> Option<(ObjId, EdgeInfo)> {
        self.reached.get(&obj)?.parent
    }
}

/// One record of a [`FlowIndex`]: where a value goes next, and the
/// assignment that carries it there.
#[derive(Debug, Clone, Copy)]
struct FlowEdge {
    dst: ObjId,
    via: EdgeInfo,
}

/// The forward value-flow graph of one `(Database, points-to)` pair, with
/// every store, load and store-load already resolved through the points-to
/// sets: `z -> v` for `*p = z`, `w -> x` for `x = *q` and `w -> v` for
/// `*p = *q` (`v` in `pts(p)`, `w` in `pts(q)`), next to the plain copies.
/// It depends on the pair only, never on a target, so it is built once —
/// one pass over the database's blocks — and a query walks it in time
/// proportional to its answer.
#[derive(Debug)]
pub struct FlowIndex {
    /// `edges[own[o]..own[o + 1]]`: the copies and stores of `o`'s own
    /// block, in block order.
    own: Vec<u32>,
    /// `edges[read[o]..read[o + 1]]`: the loads and store-loads that read
    /// `o` through a pointer, in database order.
    read: Vec<u32>,
    /// The walk relaxes an object's `own` edges, then its `read` edges, and
    /// ties between equally good chains go to the first.
    edges: Vec<FlowEdge>,
}

impl FlowIndex {
    /// Decodes every block of `db` once and resolves it through `pts`.
    ///
    /// # Errors
    ///
    /// The [`DbError`] of the first block that fails to decode or verify.
    pub fn build<P: PointsToQuery>(db: &Database, pts: &P) -> Result<FlowIndex, DbError> {
        let n = db.object_count();
        let mut own = Vec::with_capacity(n + 1);
        let mut edges = Vec::new();
        // Keyed by the pointees of whatever was dereferenced, so these come
        // out in no order of source: (object read, edge).
        let mut reads = Vec::new();
        for src in (0..n as u32).map(ObjId) {
            own.push(edges.len() as u32);
            if db.block_len(src) == 0 {
                continue;
            }
            for a in db.block(src)? {
                let via = EdgeInfo {
                    strength: a.strength,
                    op: a.op,
                    loc: a.loc,
                };
                let to = |dst| FlowEdge { dst, via };
                match a.kind {
                    AssignKind::Copy => edges.push(to(a.dst)),
                    AssignKind::Store => edges.extend(pts.pointees(a.dst).iter().map(|&v| to(v))),
                    AssignKind::Load => {
                        reads.extend(pts.pointees(a.src).iter().map(|&w| (w, to(a.dst))));
                    }
                    AssignKind::StoreLoad => {
                        for &w in pts.pointees(a.src) {
                            reads.extend(pts.pointees(a.dst).iter().map(|&v| (w, to(v))));
                        }
                    }
                    AssignKind::Addr => {}
                }
            }
        }
        own.push(edges.len() as u32);
        assert!(
            u32::try_from(edges.len() + reads.len()).is_ok(),
            "flow index past 2^32 edges"
        );
        // Stable counting sort of the reads, placed behind the own edges.
        let mut read = vec![0u32; n + 1];
        for (w, _) in &reads {
            read[w.index() + 1] += 1;
        }
        read[0] = edges.len() as u32;
        for o in 0..n {
            read[o + 1] += read[o];
        }
        if let Some(&(_, unset)) = reads.first() {
            edges.resize(edges.len() + reads.len(), unset);
        }
        let mut next = read.clone();
        for (w, edge) in reads {
            edges[next[w.index()] as usize] = edge;
            next[w.index()] += 1;
        }
        Ok(FlowIndex { own, read, edges })
    }

    /// The edges leaving `o`, in the order the walk relaxes them.
    fn out(&self, o: ObjId) -> impl Iterator<Item = &FlowEdge> {
        let of = |offsets: &[u32]| match offsets.get(o.index()..o.index() + 2) {
            Some(w) => w[0] as usize..w[1] as usize,
            None => 0..0,
        };
        self.edges[of(&self.own)]
            .iter()
            .chain(&self.edges[of(&self.read)])
    }

    /// Number of edge records.
    pub fn edges(&self) -> usize {
        self.edges.len()
    }

    /// Heap bytes the index holds.
    pub fn bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(&self.own[..]) + size_of_val(&self.read[..]) + size_of_val(&self.edges[..])
    }

    /// Dijkstra from `targets` with lexicographic (weak links, length)
    /// cost, never entering an object named in `opts.non_targets`.
    pub fn walk(&self, db: &Database, targets: &[ObjId], opts: &DependOptions) -> DependReport {
        let blocked: HashSet<ObjId> = opts
            .non_targets
            .iter()
            .flat_map(|n| db.targets(n).iter().copied())
            .collect();
        let mut reached: HashMap<ObjId, Reached> = HashMap::new();
        let mut heap: BinaryHeap<Reverse<(ChainCost, ObjId)>> = BinaryHeap::new();
        for &t in targets.iter().filter(|t| !blocked.contains(t)) {
            let cost = ChainCost::ZERO;
            reached.insert(t, Reached { cost, parent: None });
            heap.push(Reverse((cost, t)));
        }
        while let Some(Reverse((cost, o))) = heap.pop() {
            if reached[&o].cost < cost {
                continue; // stale heap entry
            }
            for e in self.out(o) {
                if blocked.contains(&e.dst) {
                    continue;
                }
                let next = Reached {
                    cost: cost.step(e.via.strength),
                    parent: Some((o, e.via)),
                };
                match reached.entry(e.dst) {
                    Entry::Occupied(r) if r.get().cost <= next.cost => continue,
                    Entry::Occupied(mut r) => *r.get_mut() = next,
                    Entry::Vacant(slot) => {
                        slot.insert(next);
                    }
                }
                heap.push(Reverse((next.cost, e.dst)));
            }
        }

        // Only a target has no parent: nothing undercuts the zero cost.
        let mut dependents: Vec<Dependent> = reached
            .iter()
            .filter(|(_, r)| r.parent.is_some())
            .map(|(&obj, r)| Dependent { obj, cost: r.cost })
            .collect();
        dependents.sort_by_key(|d| (d.cost, db.name(d.obj), d.obj));
        DependReport {
            targets: targets.to_vec(),
            dependents,
            reached,
        }
    }
}

/// Forward dependence analysis over a program database + points-to result.
///
/// Generic over the points-to source: a materialized [`PointsTo`] (the
/// default, as produced by the batch solvers) or any other
/// [`PointsToQuery`] implementor such as the immutable
/// [`SealedGraph`](cla_core::SealedGraph) a query server keeps resident —
/// the traversal itself never mutates, so running it against a shared
/// snapshot parallelizes across threads.
#[derive(Debug)]
pub struct DependenceAnalysis<'a, P = PointsTo> {
    db: &'a Database,
    pts: &'a P,
    /// Built by the first query, at most once per value.
    index: OnceLock<Result<FlowIndex, DbError>>,
}

impl<'a, P: PointsToQuery> DependenceAnalysis<'a, P> {
    /// Creates an analysis over a linked database and its points-to result.
    pub fn new(db: &'a Database, pts: &'a P) -> Self {
        DependenceAnalysis {
            db,
            pts,
            index: OnceLock::new(),
        }
    }

    /// The flow index of this `(db, pts)` pair, built on first use; a
    /// failure is remembered, not retried.
    fn index(&self) -> Result<&FlowIndex, DbError> {
        let built = self
            .index
            .get_or_init(|| FlowIndex::build(self.db, self.pts));
        built.as_ref().map_err(DbError::clone)
    }

    /// Runs a dependence query for every object named `target_name`
    /// (resolved through the database's target section). `Ok(None)` when
    /// the name matches nothing.
    ///
    /// # Errors
    ///
    /// See [`FlowIndex::build`].
    pub fn try_analyze(
        &self,
        target_name: &str,
        opts: &DependOptions,
    ) -> Result<Option<DependReport>, DbError> {
        let targets = self.db.targets(target_name);
        if targets.is_empty() {
            return Ok(None);
        }
        Ok(Some(self.index()?.walk(self.db, targets, opts)))
    }

    /// [`try_analyze`](Self::try_analyze) for one-shot batch callers that
    /// opened and verified the database themselves.
    ///
    /// # Panics
    ///
    /// When the database turns out to be damaged.
    pub fn analyze(&self, target_name: &str, opts: &DependOptions) -> Option<DependReport> {
        self.try_analyze(target_name, opts)
            .unwrap_or_else(|e| panic!("dependence index: {e}"))
    }

    /// Runs a dependence query from explicit target objects.
    ///
    /// # Panics
    ///
    /// As [`analyze`](Self::analyze).
    pub fn analyze_objects(&self, targets: &[ObjId], opts: &DependOptions) -> DependReport {
        let index = self.index();
        let index = index.unwrap_or_else(|e| panic!("dependence index: {e}"));
        index.walk(self.db, targets, opts)
    }

    /// Renders the best chain for `obj` in the paper's Figure 1 style:
    ///
    /// ```text
    /// w/short <eg1.c:3> -> u/short <eg1.c:7> -> target/short <eg1.c:6>
    ///   where target/short <eg1.c:1>
    /// ```
    ///
    /// The first element shows the dependent with its declaration site; each
    /// later element shows the value's source with the location of the
    /// assignment that carried it; the `where` clause gives the target's
    /// declaration.
    pub fn render_chain(&self, report: &DependReport, obj: ObjId) -> String {
        let files = self.db.files();
        let mut out = String::new();
        let steps = report.chain(obj);
        for (i, step) in steps.iter().enumerate() {
            let info = self.db.info(step.obj);
            // The first element shows the dependent's declaration site; each
            // later element shows the location of the assignment that
            // carried its value into the previous element.
            let loc = match step.via {
                Some(edge) if i > 0 => edge.loc,
                _ => info.loc,
            };
            if i > 0 {
                out.push_str(" -> ");
            }
            let _ = write!(out, "{}/{} <{}>", info.name, info.ty, files.display(loc));
        }
        if let Some(last) = steps.last() {
            let info = self.db.info(last.obj);
            let _ = write!(
                out,
                " where {}/{} <{}>",
                info.name,
                info.ty,
                files.display(info.loc)
            );
        }
        out
    }

    /// Renders the report as the *tree of chains* the paper's GUI browses
    /// (§2): the target at the root, each dependent under the object its
    /// value came through.
    ///
    /// The best-chain parents form a forest rooted at the targets, so every
    /// dependent appears exactly once, at the position of its most important
    /// chain.
    pub fn render_tree(&self, report: &DependReport) -> String {
        use std::collections::HashMap as Map;
        let mut children: Map<ObjId, Vec<ObjId>> = Map::new();
        for d in report.dependents() {
            if let Some((src, _)) = report.parent(d.obj) {
                children.entry(src).or_default().push(d.obj);
            }
        }
        for v in children.values_mut() {
            v.sort_by_key(|&o| self.db.name(o));
        }
        let mut out = String::new();
        for &t in &report.targets {
            self.render_subtree(report, &children, t, 0, &mut out);
        }
        out
    }

    fn render_subtree(
        &self,
        report: &DependReport,
        children: &std::collections::HashMap<ObjId, Vec<ObjId>>,
        node: ObjId,
        depth: usize,
        out: &mut String,
    ) {
        let info = self.db.info(node);
        let files = self.db.files();
        let indent = "  ".repeat(depth);
        let via = report
            .parent(node)
            .map(|(_, e)| format!(" [{} {} @ {}]", e.strength, e.op, files.display(e.loc)))
            .unwrap_or_default();
        let _ = writeln!(out, "{indent}{}/{}{via}", info.name, info.ty);
        if let Some(kids) = children.get(&node) {
            for &k in kids {
                self.render_subtree(report, children, k, depth + 1, out);
            }
        }
    }

    /// Renders the whole report: one prioritized line per dependent.
    pub fn render_report(&self, report: &DependReport) -> String {
        let mut out = String::new();
        for d in report.dependents() {
            let _ = writeln!(
                out,
                "[{} w={} len={}] {}",
                d.cost.strength(),
                d.cost.weak_links,
                d.cost.length,
                self.render_chain(report, d.obj)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cla_cladb::write_object;
    use cla_core::{solve_unit, SolveOptions};
    use cla_ir::{compile_source, CompiledUnit, LowerOptions};

    struct Ctx {
        unit: CompiledUnit,
        db: Database,
        pts: PointsTo,
    }

    fn ctx(src: &str) -> Ctx {
        let unit = compile_source(src, "eg1.c", &LowerOptions::default()).unwrap();
        let db = Database::open(write_object(&unit)).unwrap();
        let (pts, _) = solve_unit(&unit, SolveOptions::default());
        Ctx { unit, db, pts }
    }

    fn names(c: &Ctx, report: &DependReport) -> Vec<String> {
        report
            .dependents()
            .iter()
            .map(|d| c.db.object(d.obj).name.clone())
            .collect()
    }

    #[test]
    fn simple_forward_chain() {
        // Paper §2's first example.
        let c = ctx("short x, y, z, *p, v, w;
             void f(void) {
               y = x;
               z = y + 1;
               p = &v;
               *p = z;
               w = 1;
             }");
        let dep = DependenceAnalysis::new(&c.db, &c.pts);
        let report = dep.analyze("x", &DependOptions::default()).unwrap();
        let ns = names(&c, &report);
        assert!(ns.contains(&"y".to_string()), "{ns:?}");
        assert!(ns.contains(&"z".to_string()));
        assert!(ns.contains(&"v".to_string()), "v via *p: {ns:?}");
        assert!(!ns.contains(&"w".to_string()), "w = 1 is unrelated: {ns:?}");
        assert!(
            !ns.contains(&"p".to_string()),
            "p holds an address, not the value: {ns:?}"
        );
    }

    #[test]
    fn figure1_struct_example() {
        let c = ctx("short target;
             struct S { short x; short y; };
             short u, *v, w;
             struct S s, t;
             void f(void) {
               v = &w;
               u = target;
               *v = u;
               s.x = w;
             }");
        let dep = DependenceAnalysis::new(&c.db, &c.pts);
        let report = dep.analyze("target", &DependOptions::default()).unwrap();
        let ns = names(&c, &report);
        // Paper: u, w and s.x (the field object S.x) are all dependent.
        assert!(ns.contains(&"u".to_string()), "{ns:?}");
        assert!(ns.contains(&"w".to_string()), "{ns:?}");
        assert!(ns.contains(&"S.x".to_string()), "{ns:?}");
        assert!(!ns.contains(&"S.y".to_string()), "{ns:?}");

        // Chain rendering for w matches Figure 1's shape.
        let w = c.unit.find_object("w").unwrap();
        let chain = dep.render_chain(&report, w);
        assert!(chain.starts_with("w/short <eg1.c:"), "{chain}");
        assert!(chain.contains("u/short"), "{chain}");
        assert!(chain.contains("target/short"), "{chain}");
        assert!(chain.contains("where target/short <eg1.c:1>"), "{chain}");
    }

    #[test]
    fn weak_chains_rank_below_strong() {
        let c = ctx("int t, a, b;
             void f(void) { a = t; b = t >> 2; }");
        let dep = DependenceAnalysis::new(&c.db, &c.pts);
        let report = dep.analyze("t", &DependOptions::default()).unwrap();
        let deps = report.dependents();
        assert_eq!(c.db.object(deps[0].obj).name, "a");
        assert_eq!(deps[0].cost.strength(), Strength::Strong);
        assert_eq!(c.db.object(deps[1].obj).name, "b");
        assert_eq!(deps[1].cost.strength(), Strength::Weak);
        assert_eq!(deps[1].cost.weak_links, 1);
    }

    #[test]
    fn prefers_strong_path_over_short_weak_one() {
        // Two routes from t to d: direct but weak (via *), or long but
        // strong. The strong one must win.
        let c = ctx("int t, m1, m2, d;
             void f(void) {
               d = t * 3;
               m1 = t;
               m2 = m1;
               d = m2;
             }");
        let dep = DependenceAnalysis::new(&c.db, &c.pts);
        let report = dep.analyze("t", &DependOptions::default()).unwrap();
        let d = c.unit.find_object("d").unwrap();
        let found = report.dependents().iter().find(|x| x.obj == d).unwrap();
        assert_eq!(found.cost.weak_links, 0);
        assert_eq!(found.cost.length, 3);
    }

    #[test]
    fn non_targets_prune() {
        let c = ctx("int t, hub, a, b;
             void f(void) { hub = t; a = hub; b = t; }");
        let dep = DependenceAnalysis::new(&c.db, &c.pts);
        let all = dep.analyze("t", &DependOptions::default()).unwrap();
        assert!(names(&c, &all).contains(&"a".to_string()));
        let pruned = dep
            .analyze(
                "t",
                &DependOptions {
                    non_targets: vec!["hub".to_string()],
                },
            )
            .unwrap();
        let ns = names(&c, &pruned);
        assert!(!ns.contains(&"hub".to_string()), "{ns:?}");
        assert!(
            !ns.contains(&"a".to_string()),
            "a is only reachable through hub: {ns:?}"
        );
        assert!(ns.contains(&"b".to_string()));
    }

    #[test]
    fn flows_through_calls() {
        let c = ctx("short t;
             short id(short v) { return v; }
             short r;
             void main_(void) { r = id(t); }");
        let dep = DependenceAnalysis::new(&c.db, &c.pts);
        let report = dep.analyze("t", &DependOptions::default()).unwrap();
        let ns = names(&c, &report);
        assert!(ns.contains(&"v".to_string()), "{ns:?}");
        assert!(ns.contains(&"r".to_string()), "{ns:?}");
    }

    #[test]
    fn flows_through_heap() {
        let c = ctx("void *malloc(unsigned long);
             int t, out; int *p, *q;
             void f(void) { p = malloc(4); q = p; *p = t; out = *q; }");
        let dep = DependenceAnalysis::new(&c.db, &c.pts);
        let report = dep.analyze("t", &DependOptions::default()).unwrap();
        let ns = names(&c, &report);
        assert!(ns.contains(&"out".to_string()), "{ns:?}");
    }

    #[test]
    fn unknown_target_is_none() {
        let c = ctx("int x;");
        let dep = DependenceAnalysis::new(&c.db, &c.pts);
        assert!(dep.analyze("nothing", &DependOptions::default()).is_none());
    }

    #[test]
    fn sealed_snapshot_gives_identical_reports() {
        // The server runs the dependence walk against a SealedGraph instead
        // of a materialized PointsTo; both must produce the same report.
        let c = ctx("void *malloc(unsigned long);
             short t, u, w, out; int *p, *q;
             void f(void) { u = t; w = u >> 1; p = malloc(4); q = p; *p = u; out = *q; }");
        let sealed = cla_core::Warm::from_database(&c.db, SolveOptions::default()).seal();
        let from_pts = DependenceAnalysis::new(&c.db, &c.pts);
        let from_sealed = DependenceAnalysis::new(&c.db, &sealed);
        for non_targets in [vec![], vec!["u".to_string()]] {
            let opts = DependOptions { non_targets };
            let a = from_pts.analyze("t", &opts).unwrap();
            let b = from_sealed.analyze("t", &opts).unwrap();
            assert_eq!(a.dependents(), b.dependents(), "opts {opts:?}");
            assert_eq!(
                from_pts.render_report(&a),
                from_sealed.render_report(&b),
                "rendered chains diverged for {opts:?}"
            );
        }
    }

    #[test]
    fn tree_renders() {
        let c = ctx("short target;
             short u, w, x;
             void f(void) { u = target; w = u; x = target >> 1; }");
        let dep = DependenceAnalysis::new(&c.db, &c.pts);
        let report = dep.analyze("target", &DependOptions::default()).unwrap();
        let tree = dep.render_tree(&report);
        let lines: Vec<&str> = tree.lines().collect();
        assert!(lines[0].starts_with("target/short"), "{tree}");
        // u and x are direct children (indented once); w sits under u.
        assert!(lines.iter().any(|l| l.starts_with("  u/short")), "{tree}");
        assert!(
            lines.iter().any(|l| l.starts_with("  x/short [weak")),
            "{tree}"
        );
        assert!(lines.iter().any(|l| l.starts_with("    w/short")), "{tree}");
    }

    #[test]
    fn report_renders() {
        let c = ctx("int t, a; void f(void) { a = t + 1; }");
        let dep = DependenceAnalysis::new(&c.db, &c.pts);
        let report = dep.analyze("t", &DependOptions::default()).unwrap();
        let text = dep.render_report(&report);
        assert!(text.contains("a/int"), "{text}");
        assert!(text.contains("strong"), "{text}");
    }
}
