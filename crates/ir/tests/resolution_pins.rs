//! Name resolution pinned case by case: the exact `CompiledUnit` lowering
//! makes for the scoping corners of C — every object in creation order with
//! its name, link name, type text, location, enclosing function and kind,
//! then every signature and every assignment. The expected texts were
//! printed by this file at the commit before lowering resolved names
//! through a binding array, so a change of representation that moves one
//! line here has changed what lowering emits.

use cla_ir::{compile_source, CompiledUnit, LowerOptions};

/// One line per object, signature and assignment.
fn render(u: &CompiledUnit) -> String {
    let mut out = String::new();
    for (i, o) in u.objects.iter().enumerate() {
        let in_func = o.in_func.map_or("-".to_string(), |f| f.to_string());
        out.push_str(&format!(
            "o{i} {} link={} ty=`{}` @{} in={in_func} {:?}{}\n",
            o.name,
            o.link_name.as_deref().unwrap_or("-"),
            o.ty,
            u.files.display(o.loc),
            o.kind,
            if o.defined { " defined" } else { "" },
        ));
    }
    for s in &u.funsigs {
        let params: Vec<String> = s.params.iter().map(|p| p.to_string()).collect();
        out.push_str(&format!(
            "sig {} ({}) -> {}{}\n",
            s.obj,
            params.join(","),
            s.ret,
            if s.is_indirect { " indirect" } else { "" },
        ));
    }
    for a in &u.assigns {
        out.push_str(&format!(
            "{} {:?}\n",
            a.display(&u.objects, &u.files),
            a.strength
        ));
    }
    out
}

struct Case {
    name: &'static str,
    src: &'static str,
    field_independent: bool,
    expect: &'static str,
}

const CASES: &[Case] = &[
    Case {
        name: "nested blocks and a for initialiser shadow",
        src: "int x, *p;
void f(void) {
  int x;
  p = &x;
  { int x; p = &x; { int *x; x = p; } }
  for (int x = 0; x < 3; x++) { p = &x; }
  for (p = &x; p; ) { int p; p = 1; }
  p = &x;
}
void g(void) { p = &x; }
",
        field_independent: false,
        expect: "\
o0 x link=x ty=`int` @t.c:1 in=- Var defined
o1 p link=p ty=`int *` @t.c:1 in=- Var defined
o2 f link=f ty=`void ()` @t.c:2 in=- Func defined
o3 f$ret link=f$ret ty=`` @<none> in=o2 Ret
o4 x link=- ty=`int` @t.c:3 in=o2 Var
o5 x link=- ty=`int` @t.c:5 in=o2 Var
o6 x link=- ty=`int *` @t.c:5 in=o2 Var
o7 x link=- ty=`int` @t.c:6 in=o2 Var
o8 p link=- ty=`int` @t.c:7 in=o2 Var
o9 g link=g ty=`void ()` @t.c:10 in=- Func defined
o10 g$ret link=g$ret ty=`` @<none> in=o9 Ret
sig o2 () -> o3
sig o9 () -> o10
p = &x @ t.c:4 Strong
p = &x @ t.c:5 Strong
x = p @ t.c:5 Strong
p = &x @ t.c:6 Strong
p = &x @ t.c:7 Strong
p = &x @ t.c:8 Strong
p = &x @ t.c:10 Strong
",
    },
    Case {
        name: "a parameter shadows a global",
        src: "int *g, y;
int h(int *g) { g = &y; return *g; }
void k(void) { g = &y; }
",
        field_independent: false,
        expect: "\
o0 g link=g ty=`int *` @t.c:1 in=- Var defined
o1 y link=y ty=`int` @t.c:1 in=- Var defined
o2 h link=h ty=`int (int *)` @t.c:2 in=- Func defined
o3 h$ret link=h$ret ty=`` @<none> in=o2 Ret
o4 h$1 link=h$1 ty=`` @<none> in=o2 Param
o5 g link=- ty=`int *` @t.c:2 in=o2 Var
o6 k link=k ty=`void ()` @t.c:3 in=- Func defined
o7 k$ret link=k$ret ty=`` @<none> in=o6 Ret
sig o2 (o4) -> o3
sig o6 () -> o7
g = h$1 @ t.c:2 Strong
g = &y @ t.c:2 Strong
h$ret = *g @ t.c:2 Strong
g = &y @ t.c:3 Strong
",
    },
    Case {
        name: "static locals",
        src: "int *get(void) { static int cell; static int *cp = &cell; return cp; }
int *again(void) { static int cell; return &cell; }
",
        field_independent: false,
        expect: "\
o0 get link=get ty=`int * ()` @t.c:1 in=- Func defined
o1 get$ret link=get$ret ty=`` @<none> in=o0 Ret
o2 cell link=- ty=`int` @t.c:1 in=o0 Var
o3 cp link=- ty=`int *` @t.c:1 in=o0 Var
o4 again link=again ty=`int * ()` @t.c:2 in=- Func defined
o5 again$ret link=again$ret ty=`` @<none> in=o4 Ret
o6 cell link=- ty=`int` @t.c:2 in=o4 Var
sig o0 () -> o1
sig o4 () -> o5
cp = &cell [init] @ t.c:1 Strong
get$ret = cp @ t.c:1 Strong
again$ret = &cell @ t.c:2 Strong
",
    },
    Case {
        name: "block-scope extern",
        src: "int *p;
void f(void) { int shared; { extern int shared; p = &shared; } p = &shared; }
void g(void) { extern int other; p = &other; }
int other;
",
        field_independent: false,
        expect: "\
o0 p link=p ty=`int *` @t.c:1 in=- Var defined
o1 f link=f ty=`void ()` @t.c:2 in=- Func defined
o2 f$ret link=f$ret ty=`` @<none> in=o1 Ret
o3 shared link=- ty=`int` @t.c:2 in=o1 Var
o4 shared link=shared ty=`int` @t.c:2 in=- Var
o5 g link=g ty=`void ()` @t.c:3 in=- Func defined
o6 g$ret link=g$ret ty=`` @<none> in=o5 Ret
o7 other link=other ty=`int` @t.c:3 in=- Var defined
sig o1 () -> o2
sig o5 () -> o6
p = &shared @ t.c:2 Strong
p = &shared @ t.c:2 Strong
p = &other @ t.c:3 Strong
",
    },
    Case {
        name: "an implicit call, then the definition",
        src: "int *p;
void f(void) { p = make(1); use(p); }
int *make(int n) { static int c; return &c; }
",
        field_independent: false,
        expect: "\
o0 p link=p ty=`int *` @t.c:1 in=- Var defined
o1 f link=f ty=`void ()` @t.c:2 in=- Func defined
o2 f$ret link=f$ret ty=`` @<none> in=o1 Ret
o3 make link=make ty=`int ()` @t.c:2 in=- Func defined
o4 make$ret link=make$ret ty=`` @<none> in=o3 Ret
o5 make$1 link=make$1 ty=`` @<none> in=o3 Param
o6 use link=use ty=`int ()` @t.c:2 in=- Func
o7 use$ret link=use$ret ty=`` @<none> in=o6 Ret
o8 use$1 link=use$1 ty=`` @<none> in=o6 Param
o9 n link=- ty=`int` @t.c:3 in=o3 Var
o10 c link=- ty=`int` @t.c:3 in=o3 Var
sig o1 () -> o2
sig o3 (o5) -> o4
sig o6 (o8) -> o7
p = make$ret [ret] @ t.c:2 Strong
use$1 = p [arg] @ t.c:2 Strong
n = make$1 @ t.c:3 Strong
make$ret = &c @ t.c:3 Strong
",
    },
    Case {
        name: "a tentative definition, then a prototype",
        src: "int x;
int *p;
int *p;
extern int *p;
int f();
int f(int a);
int *q = &x;
int f(int a) { p = &x; return a; }
",
        field_independent: false,
        expect: "\
o0 x link=x ty=`int` @t.c:1 in=- Var defined
o1 p link=p ty=`int *` @t.c:2 in=- Var defined
o2 f link=f ty=`int ()` @t.c:5 in=- Func defined
o3 q link=q ty=`int *` @t.c:7 in=- Var defined
o4 f$ret link=f$ret ty=`` @<none> in=o2 Ret
o5 f$1 link=f$1 ty=`` @<none> in=o2 Param
o6 a link=- ty=`int` @t.c:8 in=o2 Var
sig o2 (o5) -> o4
q = &x [init] @ t.c:7 Strong
a = f$1 @ t.c:8 Strong
p = &x @ t.c:8 Strong
f$ret = a @ t.c:8 Strong
",
    },
    Case {
        name: "member access through an unknown base",
        src: "int *r, *ip;
void f(void) {
  r = unknown->fld;
  unknown->fld = r;
  r = (*mystery).other;
  r = get().fld;
  r = ip->fld;
}
",
        field_independent: false,
        expect: "\
o0 r link=r ty=`int *` @t.c:1 in=- Var defined
o1 ip link=ip ty=`int *` @t.c:1 in=- Var defined
o2 f link=f ty=`void ()` @t.c:2 in=- Func defined
o3 f$ret link=f$ret ty=`` @<none> in=o2 Ret
o4 unknown link=unknown ty=`int` @t.c:3 in=- Var
o5 ?.fld link=?.fld ty=`int` @t.c:3 in=- Field
o6 mystery link=mystery ty=`int` @t.c:5 in=- Var
o7 ?.other link=?.other ty=`int` @t.c:5 in=- Field
o8 get link=get ty=`int ()` @t.c:6 in=- Func
o9 get$ret link=get$ret ty=`` @<none> in=o8 Ret
sig o2 () -> o3
sig o8 () -> o9
r = ?.fld @ t.c:3 Strong
?.fld = r @ t.c:4 Strong
r = ?.other @ t.c:5 Strong
r = ?.fld @ t.c:6 Strong
r = ?.fld @ t.c:7 Strong
",
    },
    Case {
        name: "anonymous tags",
        src: "struct { int *a; } s1;
struct { int *a; } s2;
union { int *u; } un;
int x;
void f(void) { s1.a = &x; s2.a = s1.a; un.u = s2.a; }
typedef struct { int *h; } T;
T t1, *tp = &t1;
void g(void) { tp->h = &x; }
",
        field_independent: false,
        expect: "\
o0 s1 link=s1 ty=`struct <anon#1>` @t.c:1 in=- Var defined
o1 s2 link=s2 ty=`struct <anon#2>` @t.c:2 in=- Var defined
o2 un link=un ty=`union <anon#3>` @t.c:3 in=- Var defined
o3 x link=x ty=`int` @t.c:4 in=- Var defined
o4 f link=f ty=`void ()` @t.c:5 in=- Func defined
o5 f$ret link=f$ret ty=`` @<none> in=o4 Ret
o6 <anon#1>.a link=- ty=`int *` @t.c:5 in=- Field
o7 <anon#2>.a link=- ty=`int *` @t.c:5 in=- Field
o8 <anon#3>.u link=- ty=`int *` @t.c:5 in=- Field
o9 t1 link=t1 ty=`struct <anon#4>` @t.c:7 in=- Var defined
o10 tp link=tp ty=`struct <anon#4> *` @t.c:7 in=- Var defined
o11 g link=g ty=`void ()` @t.c:8 in=- Func defined
o12 g$ret link=g$ret ty=`` @<none> in=o11 Ret
o13 <anon#4>.h link=- ty=`int *` @t.c:8 in=- Field
sig o4 () -> o5
sig o11 () -> o12
<anon#1>.a = &x @ t.c:5 Strong
<anon#2>.a = <anon#1>.a @ t.c:5 Strong
<anon#3>.u = <anon#2>.a @ t.c:5 Strong
tp = &t1 [init] @ t.c:7 Strong
<anon#4>.h = &x @ t.c:8 Strong
",
    },
    Case {
        name: "designated and positional initialisers",
        src: "int a, b, c;
struct P { int *x; int *y; int *z; };
struct P p1 = { &a, &b };
struct P p2 = { .z = &c, &a, .x = &b };
struct P ps[2] = { { &a }, [1] = { .y = &b } };
int *arr[3] = { &a, [2] = &c };
int n = { 3 };
void f(void) { struct P loc = { .y = &a }; int *q = loc.y; }
",
        field_independent: false,
        expect: "\
o0 a link=a ty=`int` @t.c:1 in=- Var defined
o1 b link=b ty=`int` @t.c:1 in=- Var defined
o2 c link=c ty=`int` @t.c:1 in=- Var defined
o3 p1 link=p1 ty=`struct P` @t.c:3 in=- Var defined
o4 P.x link=P.x ty=`int *` @t.c:3 in=- Field
o5 P.y link=P.y ty=`int *` @t.c:3 in=- Field
o6 p2 link=p2 ty=`struct P` @t.c:4 in=- Var defined
o7 P.z link=P.z ty=`int *` @t.c:4 in=- Field
o8 ps link=ps ty=`struct P [2]` @t.c:5 in=- Var defined
o9 arr link=arr ty=`int * [3]` @t.c:6 in=- Var defined
o10 n link=n ty=`int` @t.c:7 in=- Var defined
o11 f link=f ty=`void ()` @t.c:8 in=- Func defined
o12 f$ret link=f$ret ty=`` @<none> in=o11 Ret
o13 loc link=- ty=`struct P` @t.c:8 in=o11 Var
o14 q link=- ty=`int *` @t.c:8 in=o11 Var
sig o11 () -> o12
P.x = &a [init] @ t.c:3 Strong
P.y = &b [init] @ t.c:3 Strong
P.z = &c [init] @ t.c:4 Strong
P.x = &b [init] @ t.c:4 Strong
P.x = &a [init] @ t.c:5 Strong
P.y = &b [init] @ t.c:5 Strong
arr = &a [init] @ t.c:6 Strong
arr = &c [init] @ t.c:6 Strong
P.y = &a [init] @ t.c:8 Strong
q = P.y [init] @ t.c:8 Strong
",
    },
    Case {
        name: "designated and positional initialisers, field-independent",
        src: "int a, b, c;
struct P { int *x; int *y; int *z; };
struct P p2 = { .z = &c, &a, .x = &b };
void f(void) { struct P loc = { .y = &a }; int *q = loc.y; }
",
        field_independent: true,
        expect: "\
o0 a link=a ty=`int` @t.c:1 in=- Var defined
o1 b link=b ty=`int` @t.c:1 in=- Var defined
o2 c link=c ty=`int` @t.c:1 in=- Var defined
o3 p2 link=p2 ty=`struct P` @t.c:3 in=- Var defined
o4 f link=f ty=`void ()` @t.c:4 in=- Func defined
o5 f$ret link=f$ret ty=`` @<none> in=o4 Ret
o6 loc link=- ty=`struct P` @t.c:4 in=o4 Var
o7 q link=- ty=`int *` @t.c:4 in=o4 Var
sig o4 () -> o5
p2 = &c [init] @ t.c:3 Strong
p2 = &b [init] @ t.c:3 Strong
loc = &a [init] @ t.c:4 Strong
q = loc [init] @ t.c:4 Strong
",
    },
    Case {
        name: "`*x = &y` temporaries",
        src: "int x, y, *p, **pp, ***ppp;
int (*fp)(int);
int h(int);
void f(void) {
  int a[4];
  *pp = &x;
  **ppp = &y;
  *pp = &*p;
  pp[0] = &x;
  *(pp + 1) = &y;
  *pp = a;
  *(int (**)(int))pp = h;
}
",
        field_independent: false,
        expect: "\
o0 x link=x ty=`int` @t.c:1 in=- Var defined
o1 y link=y ty=`int` @t.c:1 in=- Var defined
o2 p link=p ty=`int *` @t.c:1 in=- Var defined
o3 pp link=pp ty=`int * *` @t.c:1 in=- Var defined
o4 ppp link=ppp ty=`int * * *` @t.c:1 in=- Var defined
o5 fp link=fp ty=`int (int) *` @t.c:2 in=- Var defined
o6 h link=h ty=`int (int)` @t.c:3 in=- Func
o7 f link=f ty=`void ()` @t.c:4 in=- Func defined
o8 f$ret link=f$ret ty=`` @<none> in=o7 Ret
o9 a link=- ty=`int [4]` @t.c:5 in=o7 Var
o10 tmp$1 link=- ty=`int *` @t.c:6 in=o7 Temp
o11 tmp$2 link=- ty=`int * *` @t.c:7 in=o7 Temp
o12 tmp$3 link=- ty=`int *` @t.c:7 in=o7 Temp
o13 tmp$4 link=- ty=`int *` @t.c:9 in=o7 Temp
o14 tmp$5 link=- ty=`int * *` @t.c:10 in=o7 Temp
o15 tmp$6 link=- ty=`int *` @t.c:10 in=o7 Temp
o16 tmp$7 link=- ty=`int [4] *` @t.c:11 in=o7 Temp
o17 tmp$8 link=- ty=`int (int) * *` @t.c:12 in=o7 Temp
o18 tmp$9 link=- ty=`int (int) *` @t.c:12 in=o7 Temp
sig o7 () -> o8
tmp$1 = &x @ t.c:6 Strong
*pp = tmp$1 @ t.c:6 Strong
tmp$2 = *ppp @ t.c:7 Strong
tmp$3 = &y @ t.c:7 Strong
*tmp$2 = tmp$3 @ t.c:7 Strong
*pp = p @ t.c:8 Strong
tmp$4 = &x @ t.c:9 Strong
*pp = tmp$4 @ t.c:9 Strong
tmp$5 = pp [+] @ t.c:10 Strong
tmp$6 = &y @ t.c:10 Strong
*tmp$5 = tmp$6 @ t.c:10 Strong
tmp$7 = &a @ t.c:11 Strong
*pp = tmp$7 @ t.c:11 Strong
tmp$8 = pp [cast] @ t.c:12 Strong
tmp$9 = &h @ t.c:12 Strong
*tmp$8 = tmp$9 @ t.c:12 Strong
",
    },
];

#[test]
fn lowering_resolves_names_as_pinned() {
    let mut failures = String::new();
    for case in CASES {
        let opts = if case.field_independent {
            LowerOptions::default().field_independent()
        } else {
            LowerOptions::default()
        };
        let unit = compile_source(case.src, "t.c", &opts).unwrap();
        let got = render(&unit);
        if got != case.expect {
            failures.push_str(&format!("--- {}\n{got}", case.name));
        }
    }
    assert!(
        failures.is_empty(),
        "units moved; this build reads\n{failures}"
    );
}

/// Lowers `src` and returns its assignments without locations.
fn assigns(src: &str) -> Vec<String> {
    let u = compile_source(src, "e.c", &LowerOptions::default()).unwrap();
    u.assigns
        .iter()
        .map(|a| {
            let line = a.display(&u.objects, &u.files);
            line.split(" @ ").next().unwrap().to_string()
        })
        .collect()
}

#[test]
fn a_local_shadows_an_enum_constant() {
    let src = "enum E { a, b }; int x; int *g;
void f(void) { int *a; a = &x; g = a; }
int h(void) { return a; }
";
    assert_eq!(assigns(src), ["a = &x", "g = a"]);
    // Outside the local's scope the name is the constant again: no flow.
    let u = compile_source(src, "e.c", &LowerOptions::default()).unwrap();
    assert_eq!(u.find_objects("a").count(), 1);
}

#[test]
fn a_parameter_shadows_an_enum_constant() {
    let src = "enum E { a, b }; int x; int *g;
void f(int *a) { a = &x; g = a; }
";
    assert_eq!(assigns(src), ["a = f$1", "a = &x", "g = a"]);
}
