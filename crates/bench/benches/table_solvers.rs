//! §6 comparison: the pre-transitive solver against a transitively closed
//! worklist Andersen baseline and Steensgaard's unification-based analysis.
//!
//! The literature context the paper cites: the best transitive-closure
//! Andersen implementations took hundreds of seconds and >150MB on 500KLOC
//! (Rountev–Chandra, Su et al.), while Steensgaard is fast but coarse (Das).
//! Expected shape here: pre-transitive and worklist agree exactly, with the
//! pre-transitive solver using (far) less memory; Steensgaard is fastest
//! and strictly coarser.

use cla_bench::{fmt_count, fmt_mb, header, link_generated, scale};
use cla_core::{solve_unit, steensgaard, worklist, SolveOptions};
use cla_workload::{GenOptions, PAPER_BENCHMARKS};
use std::time::Instant;

fn main() {
    header("§6: solver comparison (pre-transitive vs worklist Andersen vs Steensgaard)");
    println!(
        "{:<8} | {:>9} {:>9} | {:>9} {:>9} | {:>9} {:>13}",
        "bench", "pre time", "pre mem", "wl time", "wl mem", "st time", "st rels"
    );
    for spec in &PAPER_BENCHMARKS {
        let (program, _) = link_generated(spec, &GenOptions::at_scale(scale()));

        let t = Instant::now();
        let (pre, pre_stats) = solve_unit(&program, SolveOptions::default());
        let pre_time = t.elapsed();

        let t = Instant::now();
        let (wl, wl_stats) = worklist::solve_with_stats(&program);
        let wl_time = t.elapsed();

        let t = Instant::now();
        let (st, _) = steensgaard::solve_with_stats(&program);
        let st_time = t.elapsed();

        // Correctness cross-checks: exact agreement between the Andersen
        // solvers, over-approximation by Steensgaard.
        assert_eq!(
            pre, wl,
            "{}: pre-transitive and worklist disagree",
            spec.name
        );
        assert!(
            pre.subsumed_by(&st),
            "{}: Steensgaard must over-approximate Andersen",
            spec.name
        );

        println!(
            "{:<8} | {:>8.3}s {:>9} | {:>8.3}s {:>9} | {:>8.3}s {:>13}",
            spec.name,
            pre_time.as_secs_f64(),
            fmt_mb(pre_stats.approx_bytes),
            wl_time.as_secs_f64(),
            fmt_mb(wl_stats.approx_bytes),
            st_time.as_secs_f64(),
            fmt_count(st.relations() as u64),
        );
        println!(
            "{:<8} |   relations: andersen {} / steensgaard {}",
            "",
            fmt_count(pre.relations() as u64),
            fmt_count(st.relations() as u64)
        );
    }
    println!("\n(both Andersen solvers verified to produce identical points-to sets;");
    println!(" Steensgaard verified to over-approximate them)");
}
