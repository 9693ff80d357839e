//! The pre-transitive graph algorithm for Andersen's analysis (paper §5,
//! Figure 5): options, counters, entry points, and the two forms a solved
//! graph takes. An edge `n_x → n_y` means `pts(x) ⊇ pts(y)`, and the
//! points-to set of `x` (`getLvals`) is the union of `baseElements` over
//! all nodes reachable from `n_x`: the graph is *never* transitively closed.
//!
//! The fixpoint (`crate::fixpoint`) adds edges until a pass adds nothing and
//! freezes the graph, which [`Warm`] holds; the sweep (`crate::sweep`) reads
//! it out, on every core, into a [`PointsTo`] for batch use or a
//! [`SealedGraph`], the immutable form that servers keep resident and
//! snapshots persist. Both build every lval set with one join
//! (`crate::store`).

use crate::fixpoint;
use crate::solution::{sets_intersect, LvalSet, PointsTo, PointsToQuery};
use crate::store::UnionLedger;
use crate::sweep::{Frozen, Relation, SweepCounts, INLINE_BELOW};
use cla_cladb::Database;
use cla_ir::{CompiledUnit, ObjId, ObjKind, ObjectInfo};
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
        Warm::frozen(fixpoint::of_unit(unit, opts), unit.objects.len())
    }

    /// Solves `db` to fixpoint with demand loading and returns the warm
    /// graph. See [`solve_database`] for the panic conditions.
    pub fn from_database(db: &Database, opts: SolveOptions) -> Warm {
        Warm::frozen(fixpoint::of_database(db, opts), db.object_count())
    }

    fn frozen((frozen, stats): (Frozen, SolveStats), n_objects: usize) -> Warm {
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
        st.sets_shared += counts.ledger.shared;
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
        let mut seen = std::collections::HashSet::new();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deductive::solve_oracle;
    use cla_ir::{compile_source, LowerOptions};
    use std::collections::HashMap;

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
