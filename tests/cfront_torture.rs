//! Frontend torture tests: awkward-but-legal C through the preprocessor,
//! parser, and (where meaningful) the whole analysis.

use cla::cfront::{parse_source, MemoryFs, PpOptions};
use cla::prelude::*;

fn parses(src: &str) {
    parse_source(src, "torture.c").unwrap_or_else(|e| panic!("{e}\n---\n{src}"));
}

fn analyzes(src: &str) -> cla::core::pipeline::Analysis {
    let mut fs = MemoryFs::new();
    fs.add("t.c", src);
    analyze(&fs, &["t.c"], &PipelineOptions::default()).expect("pipeline")
}

#[test]
fn declarator_zoo() {
    parses("int (*f(int, char *))(double);"); // fn returning fn-ptr
    parses("int (*(*g)(void))[4];"); // ptr to fn returning ptr to array
    parses("char *(*(*h[3])(void))[5];"); // array of ptr to fn ...
    parses("int (*const cp)(void);"); // qualified fn pointer (const skipped)
    parses("unsigned long long int big;");
    parses("short int si; long int li; signed char sc;");
    parses("int a[] = {1, 2, 3};"); // unsized array with initializer
    parses("struct { int x; } anon_var;");
    parses("union { int i; char c[4]; } u;");
    parses("typedef int pair_t[2]; pair_t coords;");
    parses("int matrix[2][3][4];");
    parses("void v(int (*cb)(void), int n);");
}

#[test]
fn statement_zoo() {
    parses(
        "void f(int n) {
            switch (n) {
            case 0:
            case 1: n++; break;
            case 2: { int local = n; n = local; } break;
            default: n--;
            }
            do { n--; } while (n > 0);
            for (;;) { if (n) break; else continue; }
        restart:
            if (n < 0) goto restart;
        }",
    );
    parses("void g(void) { ; ; ; {} {{}} }");
    parses("int h(void) { return (1, 2, 3); }");
}

#[test]
fn expression_zoo() {
    parses("int a = sizeof(struct Q { int z; });"); // struct def in sizeof...
    parses("int b = 1 ? 2 : 3 ? 4 : 5;");
    parses("int c = (int)(char)(long)0;");
    parses("unsigned d = ~0u >> 1;");
    parses("int e[4]; int *p = &e[1 + 2];");
    parses("void f(void) { int x; x = x = x; }");
    parses("char s1[] = \"a\" \"b\" \"c\";");
    parses("int neg = - - -1;");
}

#[test]
fn typedef_torture() {
    parses("typedef int T; typedef T U; typedef U V; V v;");
    parses("typedef struct S S; struct S { S *self; }; S s;");
    parses("typedef int (*op_t)(int, int); op_t ops[4];");
    // Shadowing: T is a typedef at file scope, a variable inside f.
    parses("typedef int T; void f(void) { int T; T = 3; }");
    // A typedef used after a storage-class keyword.
    parses("typedef long word; extern word w; static word w2;");
}

#[test]
fn preprocessor_torture() {
    let mut fs = MemoryFs::new();
    fs.add(
        "t.c",
        r#"
#define CAT(a, b) a ## b
#define XCAT(a, b) CAT(a, b)
#define PREFIX var
int XCAT(PREFIX, 1);
#define STR(x) #x
#define XSTR(x) STR(x)
const char *version = XSTR(CAT(2, 0));
#define TWICE(x) ((x) + (x))
#define THRICE(x) (TWICE(x) + (x))
int nine = THRICE(3);
#if defined(PREFIX) && !defined(NOPE) && (1 + 1 == 2)
int guarded;
#endif
#ifdef NOPE
syntax error here does not matter
#endif
"#,
    );
    let tu = cla::cfront::parse_file(&fs, "t.c", &PpOptions::default())
        .unwrap()
        .tu;
    let names: Vec<String> = tu
        .items
        .iter()
        .filter_map(|i| match i {
            cla::cfront::ast::ExternalDecl::Declaration(d) => d.items.first().map(|x| x.name),
            cla::cfront::ast::ExternalDecl::Function(f) => Some(f.name),
        })
        .map(|name| tu.name(name).to_string())
        .collect();
    assert!(names.contains(&"var1".to_string()), "{names:?}");
    assert!(names.contains(&"guarded".to_string()), "{names:?}");
    assert!(names.contains(&"nine".to_string()), "{names:?}");
}

#[test]
fn analysis_through_awkward_constructs() {
    // Pointer flow through the conditional operator, comma, casts, and a
    // do-while.
    let a = analyzes(
        "int x, y;
         int *p, *q, *r;
         void f(int cond) {
             p = cond ? &x : &y;
             q = (p, p);
             r = (int *)(void *)p;
             do { r = q; } while (cond);
         }",
    );
    let x = a.database.targets("x")[0];
    let y = a.database.targets("y")[0];
    for name in ["p", "q", "r"] {
        let o = a.database.targets(name)[0];
        assert!(a.points_to.may_point_to(o, x), "{name} -> x");
        assert!(a.points_to.may_point_to(o, y), "{name} -> y");
    }
}

#[test]
fn analysis_through_self_referential_structs() {
    let a = analyzes(
        "struct node { struct node *next; int *val; };
         struct node n1, n2, n3;
         int a, b;
         int *out;
         void f(void) {
             n1.next = &n2;
             n2.next = &n3;
             n1.val = &a;
             n3.val = &b;
             out = n1.next->next->val;
         }",
    );
    // Field-based: node.val is one object holding {a, b}.
    let out = a.database.targets("out")[0];
    assert!(a.points_to.may_point_to(out, a.database.targets("a")[0]));
    assert!(a.points_to.may_point_to(out, a.database.targets("b")[0]));
}

#[test]
fn function_pointer_zoo() {
    let a = analyzes(
        "int t1, t2;
         int *ret1(void) { return &t1; }
         int *ret2(void) { return &t2; }
         int *(*table[2])(void) = { ret1, ret2 };
         typedef int *(*getter)(void);
         getter alias;
         int *r1, *r2, *r3;
         void f(int i) {
             r1 = table[i]();
             alias = table[0];
             r2 = alias();
             r3 = (*alias)();
         }",
    );
    let t1 = a.database.targets("t1")[0];
    let t2 = a.database.targets("t2")[0];
    for name in ["r1", "r2", "r3"] {
        let o = a.database.targets(name)[0];
        assert!(a.points_to.may_point_to(o, t1), "{name} -> t1");
        assert!(a.points_to.may_point_to(o, t2), "{name} -> t2");
    }
}

#[test]
fn kr_functions_analyze() {
    let a = analyzes(
        "int target;
         int *pass(p) int *p; { return p; }
         int *got;
         void main_() { got = pass(&target); }",
    );
    let got = a.database.targets("got")[0];
    let target = a.database.targets("target")[0];
    assert!(a.points_to.may_point_to(got, target));
}

#[test]
fn gnu_flavored_code() {
    parses("__extension__ typedef unsigned long size_t_;");
    parses("int f(void) __attribute__((noreturn));");
    parses("static __inline__ int g(void) { return 0; }");
    parses("int x __attribute__((aligned(16)));");
}

#[test]
fn enum_and_bitfield_interactions() {
    let a = analyzes(
        "enum mode { OFF, SLOW = 5, FAST };
         struct flags { unsigned m : 3; unsigned rest : 29; };
         struct flags fl;
         int store;
         int *p;
         void f(void) {
             fl.m = FAST;
             store = fl.m;
             p = &store;
         }",
    );
    let p = a.database.targets("p")[0];
    assert!(a.points_to.may_point_to(p, a.database.targets("store")[0]));
}

#[test]
fn deep_nesting_does_not_overflow() {
    // Deep expression nesting exercises the recursive-descent parser: up to
    // the nesting limit it parses; beyond it, it reports a clean error
    // instead of overflowing the stack (even in debug builds).
    let mut expr = String::from("x");
    for _ in 0..50 {
        expr = format!("({expr} + 1)");
    }
    parses(&format!("int x; void f(void) {{ x = {expr}; }}"));

    let mut deep = String::from("x");
    for _ in 0..5000 {
        deep = format!("({deep})");
    }
    let err =
        cla::cfront::parse_source(&format!("int x; void f(void) {{ x = {deep}; }}"), "deep.c")
            .unwrap_err();
    assert!(format!("{err}").contains("nested too deeply"), "{err}");

    let stars = "*".repeat(5000);
    let err = cla::cfront::parse_source(&format!("int {stars}p;"), "stars.c").unwrap_err();
    assert!(format!("{err}").contains("nested too deeply"), "{err}");

    let mut chain = String::new();
    for i in 0..300 {
        chain.push_str(&format!("int v{i};\n"));
    }
    for i in 1..300 {
        chain.push_str(&format!("void f{i}(void); "));
    }
    parses(&chain);
}

#[test]
fn long_copy_chain_analyzes_iteratively() {
    // A 2,000-element pointer copy chain: a recursive getLvals would
    // overflow the stack; ours is iterative.
    let n = 2000;
    let mut src = String::from("int base;\n");
    for i in 0..n {
        src.push_str(&format!("int *p{i};\n"));
    }
    src.push_str("void f(void) {\n");
    src.push_str("p0 = &base;\n");
    for i in 1..n {
        src.push_str(&format!("p{i} = p{};\n", i - 1));
    }
    src.push_str("}\n");
    let a = analyzes(&src);
    let last = a.database.targets(&format!("p{}", n - 1))[0];
    let base = a.database.targets("base")[0];
    assert!(a.points_to.may_point_to(last, base));
}
