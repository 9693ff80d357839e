//! # cla-core — points-to solvers
//!
//! The algorithmic contribution of the paper: the pre-transitive graph
//! solver for Andersen's analysis ([`solve_unit`] / [`solve_database`]),
//! plus the comparison baselines the evaluation discusses — a classic
//! transitively-closed worklist Andersen solver ([`worklist::solve`]) and a
//! Steensgaard unification-based analysis ([`steensgaard::solve`]) — and an
//! executable encoding of the paper's deduction rules used as a test oracle
//! ([`deductive::solve_oracle`]).
//!
//! The solved relation has one representation, the shared [`LvalSet`]: the
//! solver ([`Warm`]) materializes each distinct set once, and the batch
//! result ([`PointsTo`]) and the query surface ([`SealedGraph`], what a
//! server keeps resident and a `.clasnap` stores) hold clones of the same
//! `Arc`s. `Warm` itself answers no queries — seal it or extract from it.
//!
//! ```
//! use cla_ir::{compile_source, LowerOptions};
//! use cla_core::{solve_unit, SolveOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let unit = compile_source(
//!     "int x, *y; int **z; void f(void) { z = &y; *z = &x; }",
//!     "fig3.c", &LowerOptions::default())?;
//! let (pts, _) = solve_unit(&unit, SolveOptions::default());
//! let y = unit.find_object("y").unwrap();
//! let x = unit.find_object("x").unwrap();
//! assert!(pts.may_point_to(y, x)); // Figure 3: y -> &x
//! # Ok(())
//! # }
//! ```

mod closure;
pub mod deductive;
mod fixpoint;
pub mod frontfuzz;
pub mod pipeline;
mod pretransitive;
mod solution;
pub mod steensgaard;
mod store;
mod sweep;
pub mod worklist;

pub use pretransitive::{solve_database, solve_unit, SealedGraph, SolveOptions, SolveStats, Warm};
pub use solution::{sets_intersect, LvalSet, PointsTo, PointsToQuery};
pub use store::LvalStore;

#[cfg(test)]
mod tests {
    use super::*;
    use cla_ir::{compile_source, CompiledUnit, LowerOptions};

    pub(crate) fn unit_of(src: &str) -> CompiledUnit {
        compile_source(src, "t.c", &LowerOptions::default()).unwrap()
    }

    /// Programs used for cross-solver agreement checks.
    pub(crate) const PROGRAMS: &[&str] = &[
        "int x, *y; int **z; void f(void) { z = &y; *z = &x; }",
        "int v, w, *a, *b, *c; void f(void) { a = b; b = c; c = a; a = &v; c = &w; }",
        "int x, y, *p, *q, **pp; void f(void) { p = &x; q = &y; pp = &p; *pp = q; p = *pp; }",
        "int a, *pa, *pb, **x, **y; void f(void) { pa = &a; x = &pa; y = &pb; *y = *x; }",
        "int x; int *id(int *a) { return a; } int *(*fp)(int *); int *r;
         void main_(void) { fp = id; r = fp(&x); }",
        "struct S { int *f; } s, t; int z; int *r;
         void main_(void) { s.f = &z; r = t.f; }",
        "int a, b, c, *p, **pp; void f(void) { p = &a; pp = &p; *pp = &b; *pp = &c; }",
        "void *malloc(unsigned long); int **h; int *v;
         void f(void) { h = malloc(8); *h = v; v = *h; }",
    ];

    #[test]
    fn pretransitive_matches_oracle_on_suite() {
        for src in PROGRAMS {
            let unit = unit_of(src);
            let oracle = deductive::solve_oracle(&unit);
            let (got, _) = solve_unit(&unit, SolveOptions::default());
            assert_eq!(got, oracle, "mismatch on {src}");
        }
    }

    #[test]
    fn worklist_matches_oracle_on_suite() {
        for src in PROGRAMS {
            let unit = unit_of(src);
            let oracle = deductive::solve_oracle(&unit);
            let got = worklist::solve(&unit);
            assert_eq!(got, oracle, "mismatch on {src}");
        }
    }

    #[test]
    fn steensgaard_over_approximates_on_suite() {
        for src in PROGRAMS {
            let unit = unit_of(src);
            let andersen = deductive::solve_oracle(&unit);
            let steens = steensgaard::solve(&unit);
            assert!(
                andersen.subsumed_by(&steens),
                "Steensgaard must over-approximate Andersen on {src}"
            );
        }
    }
}
