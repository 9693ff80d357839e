//! Differential testing at scale: generated benchmark programs (multiple
//! profiles and seeds) are solved by every Andersen implementation and the
//! results are compared exactly; Steensgaard is checked for
//! over-approximation. This is the heaviest correctness gate in the suite —
//! real multi-file programs, through the preprocessor, parser, lowering,
//! linker, object file, and all four solvers.

use cla::core::{steensgaard, worklist};
use cla::prelude::*;

fn check(spec_name: &str, seed: u64, scale: f64) {
    let spec = by_name(spec_name).unwrap();
    let w = generate(
        spec,
        &GenOptions {
            scale,
            files: 4,
            seed,
            ..Default::default()
        },
    );
    let mut fs = MemoryFs::new();
    for (p, c) in &w.files {
        fs.add(p.clone(), c.clone());
    }
    let names: Vec<String> = w.source_files().iter().map(|s| s.to_string()).collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let analysis = analyze(
        &fs,
        &refs,
        &PipelineOptions {
            parallel_compile: true,
            ..Default::default()
        },
    )
    .unwrap_or_else(|e| panic!("{spec_name} seed={seed}: {e}"));
    let program = analysis.database.to_unit().unwrap();

    let wl = worklist::solve(&program);
    assert_eq!(
        analysis.points_to, wl,
        "{spec_name} seed={seed}: demand pre-transitive vs worklist"
    );
    let st = steensgaard::solve(&program);
    assert!(
        analysis.points_to.subsumed_by(&st),
        "{spec_name} seed={seed}: Steensgaard must over-approximate"
    );

    // Ablation configurations agree too.
    for (cache, cycle) in [(true, false), (false, true), (false, false)] {
        let (alt, _) = solve_unit(
            &program,
            SolveOptions {
                cache,
                cycle_elim: cycle,
            },
        );
        assert_eq!(
            analysis.points_to, alt,
            "{spec_name} seed={seed}: ablation cache={cache} cycle={cycle}"
        );
    }
}

#[test]
fn sparse_profile_agrees() {
    for seed in [1, 7, 42] {
        check("nethack", seed, 0.05);
    }
}

#[test]
fn moderate_profile_agrees() {
    for seed in [3, 11] {
        check("burlap", seed, 0.04);
    }
}

#[test]
fn join_heavy_profile_agrees() {
    check("emacs", 5, 0.02);
}

#[test]
fn struct_heavy_profile_agrees_in_both_field_models() {
    let spec = by_name("vortex").unwrap();
    for field_independent in [false, true] {
        let w = generate(
            spec,
            &GenOptions {
                scale: 0.03,
                files: 3,
                ..Default::default()
            },
        );
        let mut fs = MemoryFs::new();
        for (p, c) in &w.files {
            fs.add(p.clone(), c.clone());
        }
        let names: Vec<String> = w.source_files().iter().map(|s| s.to_string()).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let lower = if field_independent {
            LowerOptions::default().field_independent()
        } else {
            LowerOptions::default()
        };
        let analysis = analyze(
            &fs,
            &refs,
            &PipelineOptions {
                lower,
                ..Default::default()
            },
        )
        .unwrap();
        let program = analysis.database.to_unit().unwrap();
        let wl = worklist::solve(&program);
        assert_eq!(
            analysis.points_to, wl,
            "field_independent={field_independent}: solvers disagree"
        );
    }
}
