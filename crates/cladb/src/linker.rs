//! The reference linker, over decoded units.
//!
//! Merges the databases of many separately compiled units into one program
//! database: objects with external linkage are unified by link name (the
//! same global symbol may be referenced in many files — paper §4), file-local
//! objects are kept distinct, assignments and signatures are remapped, and
//! indexing information is recomputed when the result is re-serialized.
//!
//! No build route links this way: builds fold encoded objects with the
//! [`ObjectLinker`](crate::ObjectLinker), whose output must equal
//! `write_object` of this linker's byte for byte. This one states the rules
//! in the plainest form — `String`s, `ObjectInfo`s, a `HashMap` — and stays
//! as the oracle of that equality (`tests/link_determinism.rs`) and as the
//! way tests, benches and `benchmarks/clabench` link units they hold
//! decoded.

use cla_ir::{CompiledUnit, FileIdx, FunSig, ObjId, PrimAssign, SrcLoc};
use std::collections::HashMap;

/// Statistics from one link.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LinkStats {
    pub units: usize,
    pub objects_in: usize,
    pub objects_out: usize,
    /// Global symbol references unified away.
    pub symbols_merged: usize,
    pub assigns: usize,
}

/// Links compiled units into a single program database.
///
/// The result has the same shape as a per-unit database (the paper: "the
/// 'executable' file produced has the same format as the object files").
pub fn link(units: &[CompiledUnit], program_name: &str) -> (CompiledUnit, LinkStats) {
    let mut linker = Linker::new(program_name);
    for unit in units {
        linker.add_unit(unit);
    }
    linker.finish()
}

/// The incremental form of [`link`]: units fold into the program database
/// one at a time.
#[derive(Debug)]
pub struct Linker {
    out: CompiledUnit,
    by_link_name: HashMap<String, ObjId>,
    stats: LinkStats,
    /// Signature merging: linked function objects may carry a signature
    /// from several units (e.g. a definition and extern call sites).
    sig_by_obj: HashMap<ObjId, FunSig>,
    indirect_sigs: Vec<FunSig>,
}

impl Linker {
    /// An empty program database awaiting units.
    pub fn new(program_name: &str) -> Self {
        Linker {
            out: CompiledUnit::new(program_name),
            by_link_name: HashMap::new(),
            stats: LinkStats::default(),
            sig_by_obj: HashMap::new(),
            indirect_sigs: Vec::new(),
        }
    }

    /// Units folded so far.
    pub fn units(&self) -> usize {
        self.stats.units
    }

    /// Folds one compiled unit into the program.
    pub fn add_unit(&mut self, unit: &CompiledUnit) {
        let out = &mut self.out;
        let by_link_name = &mut self.by_link_name;
        let stats = &mut self.stats;
        let sig_by_obj = &mut self.sig_by_obj;
        let indirect_sigs = &mut self.indirect_sigs;
        stats.units += 1;
        stats.objects_in += unit.objects.len();
        // Symbol phase: file-table remap plus link-name unification (the
        // paper's "hash global symbols into the program database").
        let sym_sp = cla_obs::global().span("link", "link.symbols");
        // File table remap.
        let file_map: Vec<FileIdx> = unit
            .files
            .names()
            .iter()
            .map(|n| out.files.intern(n))
            .collect();
        let remap_loc = |loc: SrcLoc| -> SrcLoc {
            if loc.is_none() {
                loc
            } else {
                SrcLoc::new(file_map[loc.file.0 as usize], loc.line)
            }
        };

        // Object remap.
        let mut obj_map: Vec<ObjId> = Vec::with_capacity(unit.objects.len());
        for info in &unit.objects {
            let new_id = match &info.link_name {
                Some(link) => {
                    if let Some(&existing) = by_link_name.get(link) {
                        stats.symbols_merged += 1;
                        // Prefer metadata with a real location (a definition
                        // over a mere reference).
                        let have = &mut out.objects[existing.index()];
                        if have.loc.is_none() && !info.loc.is_none() {
                            have.loc = remap_loc(info.loc);
                        }
                        if have.ty.is_empty() && !info.ty.is_empty() {
                            have.ty = info.ty.clone();
                        }
                        // A symbol is defined if *any* unit defines it.
                        have.defined |= info.defined;
                        existing
                    } else {
                        let mut new_info = info.clone();
                        new_info.loc = remap_loc(info.loc);
                        new_info.in_func = None; // fixed up below
                        let id = out.push_object(new_info);
                        by_link_name.insert(link.clone(), id);
                        id
                    }
                }
                None => {
                    let mut new_info = info.clone();
                    new_info.loc = remap_loc(info.loc);
                    new_info.in_func = None;
                    out.push_object(new_info)
                }
            };
            obj_map.push(new_id);
        }
        // Second pass: in_func links.
        for (old_ix, info) in unit.objects.iter().enumerate() {
            if let Some(f) = info.in_func {
                let new_id = obj_map[old_ix];
                let target = &mut out.objects[new_id.index()];
                if target.in_func.is_none() {
                    target.in_func = Some(obj_map[f.index()]);
                }
            }
        }
        drop(sym_sp);

        // Merge phase: assignments and signatures rewritten into program
        // object-id space.
        let merge_sp = cla_obs::global().span("link", "link.merge");
        // Assignments.
        for a in &unit.assigns {
            out.push_assign(PrimAssign {
                kind: a.kind,
                dst: obj_map[a.dst.index()],
                src: obj_map[a.src.index()],
                strength: a.strength,
                op: a.op,
                loc: remap_loc(a.loc),
            });
        }

        // Signatures.
        for sig in &unit.funsigs {
            let obj = obj_map[sig.obj.index()];
            let remapped = FunSig {
                obj,
                params: sig.params.iter().map(|p| obj_map[p.index()]).collect(),
                ret: obj_map[sig.ret.index()],
                is_indirect: sig.is_indirect,
            };
            if sig.is_indirect {
                // Indirect-call signatures never merge: each calling unit
                // has its own file-local standardized parameter objects
                // (`p$1`, ...), and collapsing two units' signatures for the
                // same global function pointer would silently drop one
                // unit's argument flows.
                indirect_sigs.push(remapped);
            } else {
                let entry = sig_by_obj.entry(obj).or_insert_with(|| remapped.clone());
                // Keep the longest parameter list seen (call sites may pass
                // more arguments than the shortest declaration).
                if remapped.params.len() > entry.params.len() {
                    entry.params = remapped.params.clone();
                }
            }
        }
        drop(merge_sp);
    }

    /// Finalizes the program database and its stats.
    ///
    /// Deterministic regardless of `HashMap` iteration order: direct
    /// signatures are unique per object and the sort is stable, so the
    /// final `funsigs` order depends only on the units and their order.
    pub fn finish(self) -> (CompiledUnit, LinkStats) {
        let mut out = self.out;
        let mut stats = self.stats;
        out.funsigs = self.sig_by_obj.into_values().collect();
        out.funsigs.extend(self.indirect_sigs);
        out.funsigs.sort_by_key(|s| s.obj);
        stats.objects_out = out.objects.len();
        stats.assigns = out.assigns.len();
        (out, stats)
    }
}

/// The unknown-summary rule of
/// [`ObjectLinker::finish`](crate::ObjectLinker::finish) over a linked
/// [`CompiledUnit`]: the reference form, for the same comparison. Returns
/// how many undefined globals were summarized.
pub fn add_unknown_summaries(program: &mut CompiledUnit) -> usize {
    use cla_ir::{AssignKind, ObjKind, ObjectInfo, OpKind, Strength};
    let undefined: Vec<ObjId> = program
        .objects
        .iter()
        .enumerate()
        .filter(|(_, o)| {
            o.link_name.is_some() && !o.defined && matches!(o.kind, ObjKind::Var | ObjKind::Func)
        })
        .map(|(i, _)| ObjId(i as u32))
        .collect();
    if undefined.is_empty() {
        return 0;
    }
    let unknown = program.push_object(ObjectInfo::global(
        "<unknown>",
        ObjKind::Heap,
        "",
        SrcLoc::NONE,
    ));
    let edge = |kind, dst, src| PrimAssign {
        kind,
        dst,
        src,
        strength: Strength::Weak,
        op: OpKind::Direct,
        loc: SrcLoc::NONE,
    };
    program.push_assign(edge(AssignKind::Addr, unknown, unknown));
    let summarized_sigs: Vec<(ObjId, Vec<ObjId>)> = program
        .funsigs
        .iter()
        .filter(|s| undefined.binary_search(&s.obj).is_ok() && !s.is_indirect)
        .map(|s| (s.ret, s.params.clone()))
        .collect();
    for &g in &undefined {
        program.push_assign(edge(AssignKind::Addr, g, unknown));
    }
    for (ret, params) in summarized_sigs {
        program.push_assign(edge(AssignKind::Addr, ret, unknown));
        for p in params {
            program.push_assign(edge(AssignKind::Copy, unknown, p));
        }
    }
    undefined.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cla_ir::{compile_source, AssignKind, LowerOptions, ObjKind};

    fn unit(src: &str, name: &str) -> CompiledUnit {
        compile_source(src, name, &LowerOptions::default()).unwrap()
    }

    #[test]
    fn globals_unify_by_name() {
        let a = unit("int shared; int *p; void f(void) { p = &shared; }", "a.c");
        let b = unit(
            "extern int shared; int q; void g(void) { q = shared; }",
            "b.c",
        );
        let (linked, stats) = link(&[a, b], "prog");
        assert_eq!(stats.units, 2);
        assert!(stats.symbols_merged >= 1);
        // Exactly one `shared` object.
        assert_eq!(linked.find_objects("shared").count(), 1);
        // Both assignments reference it.
        let shared = linked.find_object("shared").unwrap();
        assert!(linked
            .assigns
            .iter()
            .any(|x| x.src == shared && x.kind == AssignKind::Addr));
        assert!(linked
            .assigns
            .iter()
            .any(|x| x.src == shared && x.kind == AssignKind::Copy));
    }

    #[test]
    fn statics_stay_distinct() {
        let a = unit("static int s; int *p; void f(void) { p = &s; }", "a.c");
        let b = unit("static int s; int *q; void g(void) { q = &s; }", "b.c");
        let (linked, _) = link(&[a, b], "prog");
        assert_eq!(linked.find_objects("s").count(), 2);
    }

    #[test]
    fn cross_unit_calls_link_params() {
        let a = unit("int f(int x) { return x; }", "a.c");
        let b = unit("int f(int); int r, v; void g(void) { r = f(v); }", "b.c");
        let (linked, _) = link(&[a, b], "prog");
        // One f, one f$1, one f$ret.
        assert_eq!(linked.find_objects("f").count(), 1);
        assert_eq!(linked.find_objects("f$1").count(), 1);
        assert_eq!(linked.find_objects("f$ret").count(), 1);
        // One merged signature for f.
        let f = linked.find_object("f").unwrap();
        let sigs: Vec<_> = linked.funsigs.iter().filter(|s| s.obj == f).collect();
        assert_eq!(sigs.len(), 1);
        assert_eq!(sigs[0].params.len(), 1);
    }

    #[test]
    fn fields_unify_across_units() {
        let a = unit(
            "struct S { int *x; }; struct S s1; int v1; void f(void) { s1.x = &v1; }",
            "a.c",
        );
        let b = unit(
            "struct S { int *x; }; struct S s2; int *p; void g(void) { p = s2.x; }",
            "b.c",
        );
        let (linked, _) = link(&[a, b], "prog");
        assert_eq!(linked.find_objects("S.x").count(), 1);
    }

    #[test]
    fn locations_remap() {
        let a = unit("int x;", "a.c");
        let b = unit("int y;", "b.c");
        let (linked, _) = link(&[a, b], "prog");
        let x = linked.find_object("x").unwrap();
        let y = linked.find_object("y").unwrap();
        assert_eq!(linked.files.display(linked.object(x).loc), "a.c:1");
        assert_eq!(linked.files.display(linked.object(y).loc), "b.c:1");
    }

    #[test]
    fn empty_link() {
        let (linked, stats) = link(&[], "prog");
        assert_eq!(linked.objects.len(), 0);
        assert_eq!(stats.objects_out, 0);
    }

    #[test]
    fn linked_database_roundtrips() {
        let a = unit("int shared; int *p; void f(void) { p = &shared; }", "a.c");
        let b = unit(
            "extern int shared; int *q; void g(void) { q = p_alias(); } int *p_alias(void);",
            "b.c",
        );
        let (linked, _) = link(&[a, b], "prog");
        let bytes = crate::writer::write_object(&linked);
        let db = crate::reader::Database::open(bytes).unwrap();
        let back = db.to_unit().unwrap();
        assert_eq!(back.assign_counts(), linked.assign_counts());
        assert_eq!(back.objects.len(), linked.objects.len());
    }

    #[test]
    fn indirect_sigs_survive_linking_per_unit() {
        // A *global* function pointer called indirectly from two units: the
        // argument flows of BOTH call sites must survive the link (each
        // unit has its own file-local fp$1 objects; merging the signatures
        // would drop one unit's).
        let a = unit(
            "int *(*handler)(int *);
             int xa; int *ra;
             void ca(void) { ra = handler(&xa); }",
            "a.c",
        );
        let b = unit(
            "extern int *(*handler)(int *);
             int xb; int *rb;
             void cb(void) { rb = handler(&xb); }",
            "b.c",
        );
        let c = unit(
            "int *id(int *v) { return v; }
             extern int *(*handler)(int *);
             void init(void) { handler = id; }",
            "c.c",
        );
        let (linked, _) = link(&[a, b, c], "prog");
        let handler = linked.find_object("handler").unwrap();
        let indirect: Vec<_> = linked
            .funsigs
            .iter()
            .filter(|s| s.obj == handler && s.is_indirect)
            .collect();
        assert_eq!(
            indirect.len(),
            2,
            "one indirect signature per calling unit must survive: {:?}",
            linked.funsigs
        );
        // And their parameter objects are distinct (per-unit).
        assert_ne!(indirect[0].params, indirect[1].params);
    }

    #[test]
    fn heap_and_temp_objects_stay_local() {
        let a = unit(
            "void *malloc(unsigned long); int *p; void f(void) { p = malloc(4); }",
            "a.c",
        );
        let b = unit(
            "void *malloc(unsigned long); int *q; void g(void) { q = malloc(4); }",
            "b.c",
        );
        let (linked, _) = link(&[a, b], "prog");
        let heaps = linked
            .objects
            .iter()
            .filter(|o| o.kind == ObjKind::Heap)
            .count();
        assert_eq!(heaps, 2);
    }
}
