//! Database-to-database transformations.
//!
//! The paper (§4) highlights that "pre-analysis optimizers" can be written
//! "as database to database transformers", and specifically that the
//! authors "experimented with context-sensitive analysis by writing a
//! transformation that reads in databases and simulates context-sensitivity
//! by controlled duplication of primitive assignments in the database —
//! this requires no changes to code in the compile, link or analyze
//! components". This module is that experiment.

use cla_ir::{CompiledUnit, ObjId, ObjKind, ObjectInfo, OpKind, PrimAssign};
use std::collections::HashMap;

/// Statistics from a context-duplication transform.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ContextStats {
    /// Functions whose bodies were duplicated.
    pub functions_cloned: usize,
    /// Objects added by cloning.
    pub objects_added: usize,
    /// Assignments added by cloning.
    pub assigns_added: usize,
    /// Call sites distributed over clones.
    pub sites_distributed: usize,
}

/// Simulates context-sensitive analysis by *controlled duplication*: the
/// body of every directly called function is cloned `contexts` times, and
/// its call sites are distributed round-robin over the clones (call sites
/// are grouped by source location — the argument and result assignments of
/// one call share it). With `contexts` ≥ the number of call sites this is
/// full (1-level) call-site sensitivity; smaller values trade precision for
/// size, exactly the "controlled" in the paper's phrasing.
///
/// The result is an ordinary program database: the solver runs on it
/// unchanged, and clone objects report the points-to results of their
/// context.
pub fn duplicate_contexts(unit: &CompiledUnit, contexts: usize) -> (CompiledUnit, ContextStats) {
    let mut out = unit.clone();
    let mut stats = ContextStats::default();
    if contexts < 2 {
        return (out, stats);
    }

    // Body membership: every object declared inside a function, keyed by
    // the function object (paper §4: object files record, for each local,
    // the function in which it is defined).
    let mut body_of: HashMap<ObjId, Vec<ObjId>> = HashMap::new();
    for (i, o) in unit.objects.iter().enumerate() {
        if let Some(f) = o.in_func {
            body_of.entry(f).or_default().push(ObjId(i as u32));
        }
    }

    for sig in unit.funsigs.iter().filter(|s| !s.is_indirect) {
        let f = sig.obj;
        let Some(body) = body_of.get(&f) else {
            continue;
        };
        // Partition the function's assignments: internal (both ends in the
        // body or reaching out to globals from inside) vs call-site
        // plumbing (argument passing into parameters, results read from the
        // return variable).
        let is_member = |o: ObjId| unit.object(o).in_func == Some(f) || o == f;
        let mut internal: Vec<&PrimAssign> = Vec::new();
        let mut sites: HashMap<(u32, u32), Vec<&PrimAssign>> = HashMap::new();
        for a in &unit.assigns {
            let arg_edge = a.op == OpKind::Arg && sig.params.contains(&a.dst);
            let ret_edge = a.op == OpKind::RetVal && a.src == sig.ret;
            if arg_edge || ret_edge {
                // Group by call-site location.
                sites.entry((a.loc.file.0, a.loc.line)).or_default().push(a);
            } else if is_member(a.dst) || is_member(a.src) {
                internal.push(a);
            }
        }
        if sites.len() < 2 {
            continue; // a single context cannot be conflated
        }
        stats.functions_cloned += 1;
        let k = contexts.min(sites.len());

        // Clone the body (including the standardized params/ret, which are
        // in `body` because their in_func is the function object).
        let mut clone_maps: Vec<HashMap<ObjId, ObjId>> = Vec::with_capacity(k - 1);
        for ctx in 1..k {
            let mut map = HashMap::new();
            for &o in body {
                let proto = unit.object(o);
                let mut info = ObjectInfo {
                    name: format!("{}@ctx{ctx}", proto.name),
                    link_name: None, // clones are never linked
                    kind: proto.kind,
                    ty: proto.ty.clone(),
                    loc: proto.loc,
                    in_func: Some(f),
                    defined: proto.defined,
                };
                if info.kind == ObjKind::Var {
                    info.kind = ObjKind::Temp;
                }
                let id = out.push_object(info);
                stats.objects_added += 1;
                map.insert(o, id);
            }
            // Internal assignments, remapped into the clone.
            for a in &internal {
                let dst = *map.get(&a.dst).unwrap_or(&a.dst);
                let src = *map.get(&a.src).unwrap_or(&a.src);
                out.push_assign(PrimAssign { dst, src, ..**a });
                stats.assigns_added += 1;
            }
            clone_maps.push(map);
        }

        // Distribute call sites: context 0 keeps the original objects; the
        // assignments of contexts 1..k are remapped in place.
        let mut ordered: Vec<(&(u32, u32), &Vec<&PrimAssign>)> = sites.iter().collect();
        ordered.sort_by_key(|(loc, _)| **loc);
        for (ix, (_, site_assigns)) in ordered.iter().enumerate() {
            let ctx = ix % k;
            stats.sites_distributed += 1;
            if ctx == 0 {
                continue;
            }
            let map = &clone_maps[ctx - 1];
            for a in site_assigns.iter() {
                // Find the matching assignment in `out` and remap it. The
                // clone of an original assignment is located by identity of
                // all fields (assignments were copied verbatim into `out`).
                let target = out
                    .assigns
                    .iter_mut()
                    .find(|b| {
                        b.kind == a.kind
                            && b.dst == a.dst
                            && b.src == a.src
                            && b.loc == a.loc
                            && b.op == a.op
                    })
                    .expect("original assignment present in clone");
                target.dst = *map.get(&target.dst).unwrap_or(&target.dst);
                target.src = *map.get(&target.src).unwrap_or(&target.src);
            }
        }
    }
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::write_object;
    use cla_ir::{compile_source, LowerOptions};

    /// Two call sites of an identity function: context-insensitive analysis
    /// conflates them (r1 and r2 each see both x and y); the duplicated
    /// database separates them.
    const CONFLATED: &str = "int x, y;
        int *id(int *a) { return a; }
        int *r1, *r2;
        void main_(void) {
          r1 = id(&x);
          r2 = id(&y);
        }";

    #[test]
    fn duplication_restores_precision() {
        let unit = compile_source(CONFLATED, "ctx.c", &LowerOptions::default()).unwrap();
        let x = unit.find_object("x").unwrap();
        let y = unit.find_object("y").unwrap();
        let r1 = unit.find_object("r1").unwrap();
        let r2 = unit.find_object("r2").unwrap();

        // Baseline: conflated.
        let (base, _) = cla_core_solve(&unit);
        assert!(base.may_point_to(r1, x));
        assert!(
            base.may_point_to(r1, y),
            "context-insensitive join point expected"
        );

        // Transformed: each site sees only its own argument.
        let (dup, stats) = duplicate_contexts(&unit, 2);
        assert_eq!(stats.functions_cloned, 1);
        assert_eq!(stats.sites_distributed, 2);
        assert!(stats.objects_added >= 3); // a, id$1, id$ret clones
        let (pts, _) = cla_core_solve(&dup);
        assert!(pts.may_point_to(r1, x));
        assert!(!pts.may_point_to(r1, y), "contexts must be separated");
        assert!(pts.may_point_to(r2, y));
        assert!(!pts.may_point_to(r2, x));
    }

    // The solver lives in cla-core, which depends on this crate; tests use
    // a tiny local Andersen evaluator instead to avoid a cyclic dev
    // dependency.
    fn cla_core_solve(unit: &CompiledUnit) -> (NaivePts, ()) {
        (NaivePts::solve(unit), ())
    }

    /// Minimal Andersen fixpoint for tests (mirrors the deductive rules).
    struct NaivePts {
        pts: Vec<std::collections::BTreeSet<u32>>,
    }

    impl NaivePts {
        fn solve(unit: &CompiledUnit) -> NaivePts {
            use cla_ir::AssignKind as K;
            let n = unit.objects.len();
            let mut pts: Vec<std::collections::BTreeSet<u32>> = vec![Default::default(); n];
            loop {
                let mut changed = false;
                let add = |set: &mut Vec<std::collections::BTreeSet<u32>>,
                           d: usize,
                           v: u32|
                 -> bool { set[d].insert(v) };
                for a in &unit.assigns {
                    let (d, s) = (a.dst.index(), a.src.index());
                    match a.kind {
                        K::Addr => changed |= add(&mut pts, d, a.src.0),
                        K::Copy => {
                            let vs: Vec<u32> = pts[s].iter().copied().collect();
                            for v in vs {
                                changed |= add(&mut pts, d, v);
                            }
                        }
                        K::Load => {
                            let ptrs: Vec<u32> = pts[s].iter().copied().collect();
                            for p in ptrs {
                                let vs: Vec<u32> = pts[p as usize].iter().copied().collect();
                                for v in vs {
                                    changed |= add(&mut pts, d, v);
                                }
                            }
                        }
                        K::Store => {
                            let ptrs: Vec<u32> = pts[d].iter().copied().collect();
                            let vs: Vec<u32> = pts[s].iter().copied().collect();
                            for p in ptrs {
                                for &v in &vs {
                                    changed |= add(&mut pts, p as usize, v);
                                }
                            }
                        }
                        K::StoreLoad => {
                            let dptrs: Vec<u32> = pts[d].iter().copied().collect();
                            let sptrs: Vec<u32> = pts[s].iter().copied().collect();
                            for sp in &sptrs {
                                let vs: Vec<u32> = pts[*sp as usize].iter().copied().collect();
                                for dp in &dptrs {
                                    for &v in &vs {
                                        changed |= add(&mut pts, *dp as usize, v);
                                    }
                                }
                            }
                        }
                    }
                }
                // Indirect calls.
                for sig in unit.funsigs.iter().filter(|s| s.is_indirect) {
                    let targets: Vec<u32> = pts[sig.obj.index()].iter().copied().collect();
                    for g in targets {
                        if let Some(gsig) =
                            unit.funsigs.iter().find(|s| !s.is_indirect && s.obj.0 == g)
                        {
                            for (k, fp) in sig.params.iter().enumerate() {
                                if let Some(gp) = gsig.params.get(k) {
                                    let vs: Vec<u32> = pts[fp.index()].iter().copied().collect();
                                    for v in vs {
                                        changed |= add(&mut pts, gp.index(), v);
                                    }
                                }
                            }
                            let vs: Vec<u32> = pts[gsig.ret.index()].iter().copied().collect();
                            for v in vs {
                                changed |= add(&mut pts, sig.ret.index(), v);
                            }
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
            NaivePts { pts }
        }

        fn may_point_to(&self, p: ObjId, t: ObjId) -> bool {
            self.pts[p.index()].contains(&t.0)
        }
    }

    #[test]
    fn fewer_contexts_than_sites_still_sound() {
        // One call per line: sites are grouped by source location.
        let src = "int a, b, c;
            int *id(int *v) { return v; }
            int *r1, *r2, *r3;
            void main_(void) {
              r1 = id(&a);
              r2 = id(&b);
              r3 = id(&c);
            }";
        let unit = compile_source(src, "ctx.c", &LowerOptions::default()).unwrap();
        let (dup, stats) = duplicate_contexts(&unit, 2);
        assert_eq!(stats.sites_distributed, 3);
        let pts = NaivePts::solve(&dup);
        // Sites 1 and 3 share context 0; site 2 has its own.
        let a = unit.find_object("a").unwrap();
        let b = unit.find_object("b").unwrap();
        let r1 = unit.find_object("r1").unwrap();
        let r2 = unit.find_object("r2").unwrap();
        assert!(pts.may_point_to(r1, a));
        assert!(pts.may_point_to(r2, b));
        assert!(!pts.may_point_to(r2, a), "site 2 is alone in its context");
    }

    #[test]
    fn transformed_database_serializes() {
        let unit = compile_source(CONFLATED, "ctx.c", &LowerOptions::default()).unwrap();
        let (dup, _) = duplicate_contexts(&unit, 2);
        let db = crate::reader::Database::open(write_object(&dup)).unwrap();
        assert_eq!(db.objects().len(), dup.objects.len());
    }

    #[test]
    fn single_context_is_identity() {
        let unit = compile_source(CONFLATED, "ctx.c", &LowerOptions::default()).unwrap();
        let (same, stats) = duplicate_contexts(&unit, 1);
        assert_eq!(same.objects.len(), unit.objects.len());
        assert_eq!(stats, ContextStats::default());
    }
}
