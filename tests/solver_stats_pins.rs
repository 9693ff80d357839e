//! The solver's counters, pinned to the values of the commit before
//! `getLvals` started unioning by sharing (PR 24).
//!
//! A faster set algebra must be the *same* algorithm: the same passes, the
//! same `getLvals` traffic, the same traversal, the same unifications and
//! edges, and — because `.clasnap` stores `SolveStats` — a `sets_shared`
//! that counts a result handed out by pointer exactly where the interner
//! used to find the re-sorted copy. Every field but `approx_bytes` (an
//! estimate of capacities) is held here, through each way out of the
//! solver, on three programs of growing size. The pins were printed by this
//! file at the parent commit; a change that moves one has changed what the
//! solver does, not how fast it does it.

use cla::core::{SolveStats, Warm};
use cla::prelude::*;
use std::path::Path;

/// `[passes, getlvals_calls, dfs_visits, cache_hits, unifications,
/// edges_added, sets_shared, complex_in_core, nodes]`.
type Pin = [u64; 9];

fn fields(st: &SolveStats) -> Pin {
    [
        st.passes as u64,
        st.getlvals_calls,
        st.dfs_visits,
        st.cache_hits,
        st.unifications,
        st.edges_added,
        st.sets_shared,
        st.complex_in_core as u64,
        st.nodes as u64,
    ]
}

fn compile_and_link(fs: &MemoryFs, sources: &[&str]) -> CompiledUnit {
    let units: Vec<CompiledUnit> = sources
        .iter()
        .map(|f| {
            compile_file(fs, f, &PpOptions::default(), &LowerOptions::default())
                .unwrap_or_else(|e| panic!("{f}: {e}"))
                .0
        })
        .collect();
    link(&units, "a.out").0
}

fn examples_c() -> CompiledUnit {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/c");
    let mut fs = MemoryFs::new();
    for name in ["main.c", "store.c", "prog.h"] {
        fs.add(name, std::fs::read_to_string(dir.join(name)).unwrap());
    }
    compile_and_link(&fs, &["main.c", "store.c"])
}

fn ci_small() -> CompiledUnit {
    let profile =
        Profile::load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("profiles/ci-small.toml"))
            .unwrap();
    let mut fs = MemoryFs::new();
    let mut sources = Vec::new();
    generate_with(&profile, profile.seed, &mut |name, text| {
        if name.ends_with(".c") {
            sources.push(name.to_owned());
        }
        fs.add(name.to_owned(), text.to_owned());
        Ok(())
    })
    .unwrap();
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
    compile_and_link(&fs, &refs)
}

fn nethack() -> CompiledUnit {
    let w = generate(by_name("nethack").unwrap(), &GenOptions::at_scale(0.2));
    let mut fs = MemoryFs::new();
    for (path, text) in &w.files {
        fs.add(path.clone(), text.clone());
    }
    compile_and_link(&fs, &w.source_files())
}

/// The three exits, in the order of the pins: `solve_unit`,
/// `solve_database`, `Warm::from_database(..).seal()`.
fn three_exits(program: &CompiledUnit) -> [Pin; 3] {
    let opts = SolveOptions::default();
    let (_, from_unit) = solve_unit(program, opts);
    let db = Database::open(write_object(program)).unwrap();
    let (_, from_db) = solve_database(&db, opts);
    let sealed = Warm::from_database(&db, opts).seal();
    [
        fields(&from_unit),
        fields(&from_db),
        fields(&sealed.stats()),
    ]
}

#[test]
fn solve_stats_equal_the_parents_on_three_programs() {
    let cases: [(&str, CompiledUnit, [Pin; 3]); 3] = [
        (
            "examples/c",
            examples_c(),
            [[2, 10, 18, 5, 0, 9, 14, 1, 18]; 3],
        ),
        (
            "ci-small",
            ci_small(),
            [
                [2, 3519, 2992, 2536, 142, 9285, 1251, 491, 4791],
                [2, 3461, 2933, 2478, 142, 5198, 1251, 402, 4773],
                [2, 3461, 2933, 2478, 142, 5198, 1251, 402, 4773],
            ],
        ),
        (
            "nethack@0.2",
            nethack(),
            [
                [2, 367, 456, 159, 54, 1410, 107, 37, 1087],
                [2, 361, 372, 159, 52, 631, 103, 16, 1069],
                [2, 361, 372, 159, 52, 631, 103, 16, 1069],
            ],
        ),
    ];
    let mut report = String::new();
    let mut moved = false;
    for (name, program, pins) in &cases {
        let got = three_exits(program);
        moved |= got != *pins;
        report.push_str(&format!("{name}: {got:?}\n"));
    }
    assert!(!moved, "solver counters moved; this build reads\n{report}");
}
