//! `link` and `Linker`: the unit-level entry to the one linker.
//!
//! Both are adapters over [`ObjectLinker`], kept for benchmarks/clabench and
//! for callers holding decoded units: each unit is encoded as the object a
//! build would have cached, folded, and the program object decoded back.
//! They link by exactly the rules — and to exactly the bytes — every build
//! links by.

use crate::objlink::{LinkStats, ObjectLinker};
use crate::reader::Database;
use crate::unit::UnitObject;
use cla_ir::CompiledUnit;

/// Links compiled units into a single program database: kept for
/// benchmarks/clabench and for callers holding decoded units.
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

/// The incremental form of [`link`]: kept for benchmarks/clabench and for
/// callers holding decoded units.
#[derive(Debug)]
pub struct Linker(ObjectLinker);

impl Linker {
    /// An empty program database awaiting units.
    pub fn new(program_name: &str) -> Self {
        Linker(ObjectLinker::new(program_name))
    }

    /// Folds one compiled unit into the program.
    pub fn add_unit(&mut self, unit: &CompiledUnit) {
        self.0.add(&UnitObject::encode(unit));
    }

    /// The program database and its stats.
    pub fn finish(self) -> (CompiledUnit, LinkStats) {
        let linked = self.0.finish(false);
        let program = Database::from_object(linked.object)
            .and_then(|db| db.to_unit())
            .expect("the linker's program object decodes");
        (program, linked.stats)
    }
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
