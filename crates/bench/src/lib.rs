//! # cla-bench — evaluation harness
//!
//! One bench target per table and figure of the paper (run with
//! `cargo bench -p cla-bench`, or a single one with e.g.
//! `cargo bench -p cla-bench --bench table3_results`):
//!
//! | target | reproduces |
//! |---|---|
//! | `table1_strength` | Table 1 (operation classification) |
//! | `table2_benchmarks` | Table 2 (benchmark characteristics) |
//! | `table3_results` | Table 3 (main points-to results) |
//! | `table4_field_model` | Table 4 (field-based vs field-independent) |
//! | `table_fig1_chains` | Figure 1 (dependence chains) |
//! | `table_fig3_example` | Figure 3 (example derivation) |
//! | `table_ablation` | §5's caching/cycle-elimination ablation |
//! | `table_solvers` | §6's comparison with worklist Andersen and Steensgaard |
//! | `micro` | micro-benchmarks of the frontend, database, and solver kernels, and lock-free query throughput across threads |
//! | `overhead` | what disabled instrumentation costs: the pipeline with `cla-obs` tracing and the `cla-prof` profiler off, on, and retired |
//!
//! The synthetic benchmarks are scaled by the `CLA_SCALE` environment
//! variable (default 0.1 = 10% of the paper's sizes; use `CLA_SCALE=1.0`
//! for full size).
//!
//! These targets print; none writes a file. The JSON files the CI gates
//! read each have one producer, an example of the `cla` package:
//! `million_bench`, `hub_bench` or `snapshot_bench`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use cla_cfront::{MemoryFs, PpOptions};
use cla_ir::{compile_file, CompiledUnit, LowerOptions};
use cla_workload::{generate, BenchSpec, GenOptions, Workload};

/// The benchmark scale factor from `CLA_SCALE` (default 0.1).
pub fn scale() -> f64 {
    std::env::var("CLA_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.1)
}

/// Generates a workload at the harness scale and loads it into an in-memory
/// file system.
pub fn materialize(spec: &BenchSpec) -> (MemoryFs, Workload) {
    let w = generate(spec, &GenOptions::at_scale(scale()));
    (memory_fs(&w), w)
}

/// Generates `spec` under `opts` and links it: every source through
/// `compile_file` with default options, then `cla_cladb::link`. Returns the
/// program and the workload it came from.
pub fn link_generated(spec: &BenchSpec, opts: &GenOptions) -> (CompiledUnit, Workload) {
    let w = generate(spec, opts);
    let fs = memory_fs(&w);
    let units: Vec<CompiledUnit> = (w.source_files().iter())
        .map(|f| {
            compile_file(&fs, f, &PpOptions::default(), &LowerOptions::default())
                .expect("compile")
                .0
        })
        .collect();
    let (program, _) = cla_cladb::link(&units, &w.name);
    (program, w)
}

/// Loads a generated workload into an in-memory file system.
pub fn memory_fs(w: &Workload) -> MemoryFs {
    let mut fs = MemoryFs::new();
    for (p, c) in &w.files {
        fs.add(p.clone(), c.clone());
    }
    fs
}

/// Warms up, then times individual iterations of `f` until there are 20
/// samples or ~2s have been spent, whichever comes first, and returns the
/// median and the sample count. `setup` builds each iteration's input
/// outside the clock.
pub fn median_of<I, R>(
    mut setup: impl FnMut() -> I,
    mut f: impl FnMut(I) -> R,
) -> (Duration, usize) {
    for _ in 0..2 {
        black_box(f(setup()));
    }
    let mut samples = Vec::new();
    let budget = Instant::now();
    while samples.len() < 20 && budget.elapsed() < Duration::from_secs(2) {
        let input = setup();
        let t = Instant::now();
        black_box(f(input));
        samples.push(t.elapsed());
    }
    samples.sort();
    (samples[samples.len() / 2], samples.len())
}

/// Formats a count with thousands separators.
pub fn fmt_count(v: u64) -> String {
    let s = v.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Formats a byte count as MB with one decimal.
pub fn fmt_mb(bytes: usize) -> String {
    format!("{:.1}MB", bytes as f64 / 1e6)
}

/// Prints a standard header naming the experiment and scale.
pub fn header(title: &str) {
    println!("================================================================");
    println!("{title}");
    println!(
        "scale = {} (set CLA_SCALE to change; 1.0 = paper size)",
        scale()
    );
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(fmt_count(0), "0");
        assert_eq!(fmt_count(999), "999");
        assert_eq!(fmt_count(1_000), "1,000");
        assert_eq!(fmt_count(1_234_567), "1,234,567");
        assert_eq!(fmt_mb(12_100_000), "12.1MB");
    }

    #[test]
    fn materialize_small() {
        use cla_cfront::FileProvider as _;
        std::env::set_var("CLA_SCALE", "0.01");
        let spec = cla_workload::by_name("nethack").unwrap();
        let (fs, w) = materialize(spec);
        assert!(!w.source_files().is_empty());
        assert!(fs.read("shared.h").is_some());
    }

    #[test]
    fn link_generated_small() {
        let spec = cla_workload::by_name("nethack").unwrap();
        let (program, w) = link_generated(spec, &GenOptions::at_scale(0.01));
        assert_eq!(w.name, "nethack");
        assert!(program.program_variable_count() > 0);
        assert!(program.assign_counts().total() > 0);
    }
}
