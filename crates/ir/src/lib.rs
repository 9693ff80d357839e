//! # cla-ir — the primitive-assignment intermediate representation
//!
//! CLA's *compile* phase: lowers C translation units to the five primitive
//! assignment forms of the paper (`x = y`, `x = &y`, `*x = y`, `x = *y`,
//! `*x = *y`) plus function signature records. The output, a
//! [`CompiledUnit`], is what the object-file database in `cla-cladb`
//! serializes and the solvers in `cla-core` consume.
//!
//! ```
//! use cla_cfront::parse_source;
//! use cla_ir::{lower_unit, LowerOptions};
//!
//! # fn main() -> Result<(), cla_cfront::CError> {
//! let tu = parse_source("int x, *p; void f(void) { p = &x; }", "a.c")?;
//! let sm = cla_cfront::SourceMap::new();
//! let unit = lower_unit(&tu, &sm, &LowerOptions::default());
//! assert_eq!(unit.assign_counts().addr, 1);
//! # Ok(())
//! # }
//! ```

mod assign;
mod loc;
mod lower;
mod object;
pub mod strength;

pub use assign::{AssignCounts, AssignKind, CompiledUnit, FunSig, PrimAssign};
pub use loc::{FileIdx, FileTable, SrcLoc};
pub use lower::{lower_unit, FieldModel, LowerOptions};
pub use object::{ObjId, ObjKind, ObjectInfo};
pub use strength::{OpKind, Strength};

use cla_cfront::{
    parse_preprocessed, preprocess_file, FileProvider, FrontendLimits, PpOptions, PpStats,
    Preprocessed, Result,
};

/// Statistics from compiling one source file.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CompileStats {
    /// Bytes of source consumed (main file + headers).
    pub source_bytes: u64,
    /// Approximate preprocessed line count.
    pub preprocessed_lines: usize,
    /// Preprocessed token count.
    pub tokens: usize,
}

impl CompileStats {
    /// The stats of a unit preprocessed with `pp` stats.
    #[must_use]
    pub fn of(pp: &PpStats) -> CompileStats {
        CompileStats {
            source_bytes: pp.bytes_in,
            preprocessed_lines: pp.lines_out,
            tokens: pp.tokens_out,
        }
    }
}

/// Convenience pipeline: preprocess + parse + lower one file.
///
/// # Errors
///
/// Propagates frontend errors.
pub fn compile_file(
    fs: &dyn FileProvider,
    path: &str,
    pp: &PpOptions,
    lower: &LowerOptions,
) -> Result<(CompiledUnit, CompileStats)> {
    let mut sp = cla_obs::global().span("front", "compile_file");
    sp.set("file", path);
    let pre = preprocess_file(fs, path, pp)?;
    parse_and_lower(&mut sp, pre, path, &pp.limits, lower)
}

/// The parse + lower half of [`compile_file`], for a unit the caller has
/// already preprocessed (the compile cache preprocesses every file to key
/// it, and compiles the misses from that same pass).
///
/// # Errors
///
/// Propagates parse errors.
pub fn compile_preprocessed(
    pre: Preprocessed,
    path: &str,
    limits: &FrontendLimits,
    lower: &LowerOptions,
) -> Result<(CompiledUnit, CompileStats)> {
    let mut sp = cla_obs::global().span("front", "compile_file");
    sp.set("file", path);
    parse_and_lower(&mut sp, pre, path, limits, lower)
}

fn parse_and_lower(
    sp: &mut cla_obs::Span<'_>,
    pre: Preprocessed,
    path: &str,
    limits: &FrontendLimits,
    lower: &LowerOptions,
) -> Result<(CompiledUnit, CompileStats)> {
    let parsed = parse_preprocessed(pre, path, limits)?;
    let gen_sp = cla_obs::global().span("front", "assign_gen");
    let unit = lower_unit(&parsed.tu, &parsed.sources, lower);
    drop(gen_sp);
    sp.set("objects", unit.objects.len());
    sp.set("assigns", unit.assigns.len());
    Ok((unit, CompileStats::of(&parsed.pp_stats)))
}

/// Compiles a single in-memory source string (for tests and examples).
///
/// # Errors
///
/// Propagates frontend errors.
pub fn compile_source(src: &str, name: &str, lower: &LowerOptions) -> Result<CompiledUnit> {
    let mut fs = cla_cfront::MemoryFs::new();
    fs.add(name, src);
    Ok(compile_file(&fs, name, &PpOptions::default(), lower)?.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(src: &str) -> CompiledUnit {
        compile_source(src, "t.c", &LowerOptions::default()).unwrap()
    }

    fn compile_fi(src: &str) -> CompiledUnit {
        compile_source(src, "t.c", &LowerOptions::default().field_independent()).unwrap()
    }

    /// The textual assignments, stripped of locations, one per line.
    fn assigns(u: &CompiledUnit) -> Vec<String> {
        u.assigns
            .iter()
            .map(|a| {
                let line = a.display(&u.objects, &u.files);
                line.split(" @ ").next().unwrap().to_string()
            })
            .collect()
    }

    fn has(u: &CompiledUnit, line: &str) -> bool {
        assigns(u).iter().any(|l| l == line)
    }

    #[test]
    fn figure3_example() {
        // Paper Figure 3.
        let u = compile("int x, *y; int **z; void f(void) { z = &y; *z = &x; }");
        assert!(has(&u, "z = &y"), "{:?}", assigns(&u));
        // *z = &x needs a temp: t = &x; *z = t.
        assert!(has(&u, "tmp$1 = &x"), "{:?}", assigns(&u));
        assert!(has(&u, "*z = tmp$1"), "{:?}", assigns(&u));
        let c = u.assign_counts();
        assert_eq!(c.addr, 2);
        assert_eq!(c.store, 1);
    }

    #[test]
    fn five_primitive_forms() {
        let u = compile(
            "int x, y, *p, *q, **pp;
             void f(void) { x = y; p = &x; *pp = p; q = *pp; *pp = *pp; }",
        );
        let c = u.assign_counts();
        assert!(has(&u, "x = y"));
        assert!(has(&u, "p = &x"));
        assert!(has(&u, "*pp = p"));
        assert!(has(&u, "q = *pp"));
        assert!(has(&u, "*pp = *pp"));
        assert_eq!(c.copy, 1);
        assert_eq!(c.addr, 1);
        assert_eq!(c.store, 1);
        assert_eq!(c.load, 1);
        assert_eq!(c.store_load, 1);
    }

    #[test]
    fn arithmetic_splits_into_two_assignments() {
        // x = y + z gives x = y and x = z, both strong, both tagged `+`.
        let u = compile("int x, y, z; void f(void) { x = y + z; }");
        assert!(has(&u, "x = y [+]"), "{:?}", assigns(&u));
        assert!(has(&u, "x = z [+]"));
        for a in &u.assigns {
            assert_eq!(a.strength, Strength::Strong);
        }
    }

    #[test]
    fn weak_and_none_operands() {
        // x = y >> k : y is weak, k generates nothing.
        let u = compile("int x, y, k; void f(void) { x = y >> k; }");
        let lines = assigns(&u);
        assert_eq!(lines, vec!["x = y [>>]"]);
        assert_eq!(u.assigns[0].strength, Strength::Weak);

        // z1 = !y : ignored entirely (paper Section 2).
        let u = compile("int z1, y; void f(void) { z1 = !y; }");
        assert!(assigns(&u).is_empty());

        // Comparisons and logicals generate nothing.
        let u = compile("int a, b, c; void f(void) { a = b < c; a = b && c; }");
        assert!(assigns(&u).is_empty());
    }

    #[test]
    fn multiplication_is_weak_both_sides() {
        let u = compile("int x, y, z; void f(void) { x = y * z; }");
        assert_eq!(assigns(&u).len(), 2);
        for a in &u.assigns {
            assert_eq!(a.strength, Strength::Weak);
            assert_eq!(a.op, OpKind::Mul);
        }
    }

    #[test]
    fn compound_assignment() {
        let u = compile("int x, y; void f(void) { x += y; x <<= y; }");
        // x += y : x = y [+]; x <<= y : shift amount is class None -> nothing.
        assert_eq!(assigns(&u), vec!["x = y [+]"]);
    }

    #[test]
    fn nested_deref_introduces_temp() {
        let u = compile("int x, **pp; void f(void) { x = **pp; }");
        // t = *pp; x = *t.
        assert!(has(&u, "tmp$1 = *pp"), "{:?}", assigns(&u));
        assert!(has(&u, "x = *tmp$1"));
    }

    #[test]
    fn address_of_deref_cancels() {
        let u = compile("int *p, *q; void f(void) { p = &*q; }");
        assert_eq!(assigns(&u), vec!["p = q"]);
    }

    #[test]
    fn field_based_members() {
        // Paper Section 3's field-based example.
        let u = compile(
            "struct S { int *x; int *y; } A, B;
             int z;
             void main_(void) {
               int *p, *q, *r, *s;
               A.x = &z;
               p = A.x;
               q = A.y;
               r = B.x;
               s = B.y;
             }",
        );
        let lines = assigns(&u);
        assert!(lines.contains(&"S.x = &z".to_string()), "{lines:?}");
        assert!(lines.contains(&"p = S.x".to_string()));
        assert!(lines.contains(&"q = S.y".to_string()));
        assert!(lines.contains(&"r = S.x".to_string()));
        assert!(lines.contains(&"s = S.y".to_string()));
    }

    #[test]
    fn field_independent_members() {
        let u = compile_fi(
            "struct S { int *x; int *y; } A, B;
             int z;
             void main_(void) {
               int *p, *q;
               A.x = &z;
               p = A.x;
               q = A.y;
             }",
        );
        let lines = assigns(&u);
        assert!(lines.contains(&"A = &z".to_string()), "{lines:?}");
        assert!(lines.contains(&"p = A".to_string()));
        assert!(lines.contains(&"q = A".to_string()));
    }

    #[test]
    fn arrow_access_field_based() {
        let u = compile(
            "struct S { int *x; } *ps; int z;
             void f(void) { ps->x = &z; }",
        );
        assert!(has(&u, "S.x = &z"), "{:?}", assigns(&u));
    }

    #[test]
    fn arrow_access_field_independent() {
        let u = compile_fi(
            "struct S { int *x; } *ps; int z;
             void f(void) { ps->x = &z; }",
        );
        // *ps = &z via temp.
        assert!(has(&u, "tmp$1 = &z"), "{:?}", assigns(&u));
        assert!(has(&u, "*ps = tmp$1"));
    }

    #[test]
    fn arrays_are_index_independent() {
        let u = compile("int a[10], x, i; void f(void) { a[i] = x; x = a[2]; }");
        assert!(has(&u, "a = x"), "{:?}", assigns(&u));
        assert!(has(&u, "x = a"));
        // Pointer indexing is a deref.
        let u = compile("int *p, x, i; void f(void) { x = p[i]; }");
        assert!(has(&u, "x = *p"), "{:?}", assigns(&u));
    }

    #[test]
    fn array_decay() {
        let u = compile("int a[10], *p; void f(void) { p = a; }");
        assert!(has(&u, "p = &a"), "{:?}", assigns(&u));
        let u = compile("int a[10], *p; void f(void) { p = &a[3]; }");
        assert!(has(&u, "p = &a"), "{:?}", assigns(&u));
    }

    #[test]
    fn functions_get_standardized_params() {
        // Paper Section 4: int f(x, y) { ... return z; } gives
        // x = f1, y = f2, fret = z.
        let u = compile("int f(int x, int y) { int z; z = x; return z; }");
        let lines = assigns(&u);
        assert!(lines.contains(&"x = f$1".to_string()), "{lines:?}");
        assert!(lines.contains(&"y = f$2".to_string()));
        assert!(lines.contains(&"z = x".to_string()));
        assert!(lines.contains(&"f$ret = z".to_string()));
        let f = u.find_object("f").unwrap();
        let sig = u.funsig(f).unwrap();
        assert_eq!(sig.params.len(), 2);
        assert!(!sig.is_indirect);
    }

    #[test]
    fn direct_calls() {
        // w = f(e1, e2) gives f1 = e1, f2 = e2, w = fret.
        let u = compile(
            "int f(int a, int b);
             int w, e1, e2;
             void g(void) { w = f(e1, e2); }",
        );
        let lines = assigns(&u);
        assert!(lines.contains(&"f$1 = e1 [arg]".to_string()), "{lines:?}");
        assert!(lines.contains(&"f$2 = e2 [arg]".to_string()));
        assert!(lines.contains(&"w = f$ret [ret]".to_string()));
    }

    #[test]
    fn function_address_flows() {
        let u = compile("int f(void); int (*fp)(void); void g(void) { fp = f; fp = &f; }");
        let lines = assigns(&u);
        assert_eq!(
            lines.iter().filter(|l| *l == "fp = &f").count(),
            2,
            "{lines:?}"
        );
    }

    #[test]
    fn indirect_call_marks_function_pointer() {
        let u = compile(
            "int (*fp)(int); int x, w;
             void g(void) { w = (*fp)(x); }",
        );
        let fp = u.find_object("fp").unwrap();
        let sig = u.funsig(fp).expect("fp should have a signature");
        assert!(sig.is_indirect);
        assert_eq!(sig.params.len(), 1);
        let lines = assigns(&u);
        assert!(lines.contains(&"fp$1 = x [arg]".to_string()), "{lines:?}");
        assert!(lines.contains(&"w = fp$ret [ret]".to_string()));
    }

    #[test]
    fn indirect_call_without_star() {
        let u = compile("int (*fp)(int); int x; void g(void) { fp(x); }");
        let fp = u.find_object("fp").unwrap();
        assert!(u.funsig(fp).unwrap().is_indirect);
    }

    #[test]
    fn malloc_is_a_fresh_site() {
        let u = compile(
            "void *malloc(unsigned long);
             int *p, *q;
             void f(void) { p = malloc(4); q = malloc(8); }",
        );
        let lines = assigns(&u);
        assert!(
            lines.iter().any(|l| l.starts_with("p = &heap@t.c:")),
            "{lines:?}"
        );
        assert!(lines.iter().any(|l| l.starts_with("q = &heap@t.c:")));
        // Two distinct heap objects.
        let heaps: Vec<_> = u
            .objects
            .iter()
            .filter(|o| o.kind == ObjKind::Heap)
            .collect();
        assert_eq!(heaps.len(), 2);
    }

    #[test]
    fn strings_ignored_by_default() {
        let u = compile("char *s; void f(void) { s = \"hello\"; }");
        assert!(assigns(&u).is_empty());
        let opts = LowerOptions {
            model_strings: true,
            ..LowerOptions::default()
        };
        let u = compile_source("char *s; void f(void) { s = \"hello\"; }", "t.c", &opts).unwrap();
        assert_eq!(u.assigns.len(), 1);
        assert_eq!(u.assigns[0].kind, AssignKind::Addr);
    }

    #[test]
    fn initializers() {
        let u = compile("int x; int *p = &x;");
        assert!(has(&u, "p = &x [init]"), "{:?}", assigns(&u));

        // Function pointer tables.
        let u = compile(
            "int f(void), g(void);
             int (*tbl[2])(void) = { f, g };",
        );
        let lines = assigns(&u);
        assert!(lines.contains(&"tbl = &f [init]".to_string()), "{lines:?}");
        assert!(lines.contains(&"tbl = &g [init]".to_string()));

        // Struct initializers hit field objects (field-based).
        let u = compile("int a, b; struct P { int *x; int *y; } p = { &a, &b };");
        let lines = assigns(&u);
        assert!(lines.contains(&"P.x = &a [init]".to_string()), "{lines:?}");
        assert!(lines.contains(&"P.y = &b [init]".to_string()));

        // Designated initializers.
        let u = compile("int a; struct P { int *x; int *y; } p = { .y = &a };");
        assert!(has(&u, "P.y = &a [init]"), "{:?}", assigns(&u));
    }

    #[test]
    fn locals_shadow_globals() {
        let u = compile("int x, y; void f(void) { int x; x = y; }");
        // Two objects named x.
        assert_eq!(u.find_objects("x").count(), 2);
        // The assignment's dst is the local one (which has in_func set).
        let a = &u.assigns[0];
        assert!(u.object(a.dst).in_func.is_some());
    }

    #[test]
    fn static_objects_are_file_local() {
        let u = compile("static int s; int g;");
        let s = u.find_object("s").unwrap();
        let g = u.find_object("g").unwrap();
        assert!(!u.object(s).is_global());
        assert!(u.object(g).is_global());
    }

    #[test]
    fn static_function_params_not_linked() {
        let u = compile("static int f(int a) { return a; }");
        let p = u.find_object("f$1").unwrap();
        assert!(!u.object(p).is_global());
    }

    #[test]
    fn return_flows_to_ret_object() {
        let u = compile("int y; int f(void) { return y + 1; }");
        assert!(has(&u, "f$ret = y [+]"), "{:?}", assigns(&u));
    }

    #[test]
    fn conditional_joins_both_branches() {
        let u = compile("int x, a, b, c; void f(void) { x = c ? a : b; }");
        let lines = assigns(&u);
        assert!(lines.contains(&"x = a [?:]".to_string()), "{lines:?}");
        assert!(lines.contains(&"x = b [?:]".to_string()));
    }

    #[test]
    fn casts_recorded() {
        let u = compile("int x; long y; void f(void) { y = (long)x; }");
        assert_eq!(assigns(&u), vec!["y = x [cast]"]);
    }

    #[test]
    fn incdec_no_noise() {
        let u = compile("int i; void f(void) { i++; ++i; i--; }");
        assert!(assigns(&u).is_empty());
    }

    #[test]
    fn paper_figure1_dependence_assignments() {
        let u = compile(
            "short target;
             struct S { short x; short y; };
             short u, *v, w;
             struct S s, t;
             void f(void) {
               v = &w;
               u = target;
               *v = u;
               s.x = w;
             }",
        );
        let lines = assigns(&u);
        assert!(lines.contains(&"v = &w".to_string()), "{lines:?}");
        assert!(lines.contains(&"u = target".to_string()));
        assert!(lines.contains(&"*v = u".to_string()));
        assert!(lines.contains(&"S.x = w".to_string()));
    }

    #[test]
    fn variadic_call_grows_params() {
        let u = compile(
            "int printf(const char *fmt, ...);
             int a, b;
             void f(void) { printf(\"%d%d\", a, b); }",
        );
        let pf = u.find_object("printf").unwrap();
        let sig = u.funsig(pf).unwrap();
        assert_eq!(sig.params.len(), 3);
    }

    #[test]
    fn struct_copy_is_noop_field_based() {
        let u = compile("struct S { int a; } x, y; void f(void) { x = y; }");
        // Field-based: both sides are the same abstract object set; the
        // emitted copy x = y relates the (ignored) base objects.
        // We accept either zero assignments or a single harmless base copy.
        assert!(u.assigns.len() <= 1);
    }

    #[test]
    fn program_counts() {
        let u = compile("int x, *p; struct S { int f; } s; int main(void) { p = &x; return 0; }");
        assert!(u.program_variable_count() >= 4);
        let c = u.assign_counts();
        assert_eq!(c.addr, 1);
    }

    #[test]
    fn enum_constants_are_literals() {
        let u = compile("enum E { A, B }; int x; void f(void) { x = A; }");
        assert!(assigns(&u).is_empty());
    }

    #[test]
    fn pointer_arithmetic_keeps_pointer_flow() {
        let u = compile("int *p, *q, i; void f(void) { q = p + i; }");
        let lines = assigns(&u);
        assert!(lines.contains(&"q = p [+]".to_string()), "{lines:?}");
        assert!(lines.contains(&"q = i [+]".to_string()));
    }

    #[test]
    fn deref_of_pointer_arithmetic() {
        let u = compile("int *p, i, x; void f(void) { x = *(p + i); }");
        // t = p [+]; t = i [+]; x = *t
        let lines = assigns(&u);
        assert!(lines.contains(&"tmp$1 = p [+]".to_string()), "{lines:?}");
        assert!(lines.contains(&"x = *tmp$1".to_string()));
    }
}
