//! Table 2: benchmark characteristics.
//!
//! Generates each synthetic benchmark at the harness scale, runs the real
//! compile + link phases, and prints lines of code, object size, program
//! variables, and the counts of the five primitive assignment forms — side
//! by side with the paper's numbers scaled by the same factor.

use cla_bench::{fmt_count, fmt_mb, header, link_generated, scale};
use cla_cladb::write_object;
use cla_workload::{GenOptions, PAPER_BENCHMARKS};

fn main() {
    header("Table 2: Benchmarks (generated vs paper x scale)");
    let sc = scale();
    println!(
        "{:<8} {:>9} {:>9} {:>9} {:>10} {:>10} {:>8} {:>7} {:>7} {:>7}",
        "bench", "LOC", "objMB", "vars", "x=y", "x=&y", "*x=y", "*x=*y", "x=*y", "files"
    );
    for spec in &PAPER_BENCHMARKS {
        let (program, w) = link_generated(spec, &GenOptions::at_scale(sc));
        let bytes = write_object(&program);
        let c = program.assign_counts();
        println!(
            "{:<8} {:>9} {:>9} {:>9} {:>10} {:>10} {:>8} {:>7} {:>7} {:>7}",
            spec.name,
            fmt_count(w.total_lines() as u64),
            fmt_mb(bytes.len()),
            fmt_count(program.program_variable_count() as u64),
            fmt_count(c.copy as u64),
            fmt_count(c.addr as u64),
            fmt_count(c.store as u64),
            fmt_count(c.store_load as u64),
            fmt_count(c.load as u64),
            w.source_files().len(),
        );
        let t = |v: u32| fmt_count((f64::from(v) * sc) as u64);
        println!(
            "{:<8} {:>9} {:>9} {:>9} {:>10} {:>10} {:>8} {:>7} {:>7}",
            "  paper*",
            if spec.loc_source > 0 {
                t(spec.loc_source)
            } else {
                "-".into()
            },
            "-",
            t(spec.variables),
            t(spec.copy),
            t(spec.addr),
            t(spec.store),
            t(spec.store_load),
            t(spec.load),
        );
    }
    println!("\n(paper* rows are the published Table 2 values multiplied by the scale factor)");
}
