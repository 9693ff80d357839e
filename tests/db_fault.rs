//! Fault-injection tests over a real multi-section object file: every
//! corruption the deterministic harness can produce must surface as a typed
//! `DbError` or decode to exactly the pristine data — never a panic, never
//! a silently wrong answer.

use cla::cladb::fault::{
    bit_flip_round, run_object_fuzz, section_shuffle_round, truncation_sweep, with_quiet_panics,
    FuzzReport, Oracle,
};
use cla::cladb::FORMAT;
use cla::prelude::*;
use std::path::Path;

/// Compiles and links `examples/c/` (two translation units, a shared
/// header, function calls across files) into real object bytes — the same
/// program the CLI smoke tests use, so the file exercises every section
/// kind the writer emits.
fn example_object_bytes() -> Vec<u8> {
    let examples = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/c");
    let pp = PpOptions {
        include_dirs: vec![examples.to_string_lossy().into_owned()],
        ..PpOptions::default()
    };
    let units: Vec<CompiledUnit> = ["main.c", "store.c"]
        .iter()
        .map(|f| {
            let path = examples.join(f).to_string_lossy().into_owned();
            compile_file(&OsFs, &path, &pp, &LowerOptions::default())
                .unwrap()
                .0
        })
        .collect();
    let (program, _) = link(&units, "a.out");
    write_object(&program)
}

#[test]
fn truncation_at_every_byte_offset_is_rejected_or_consistent() {
    let bytes = example_object_bytes();
    assert!(bytes.len() > 200, "example object suspiciously small");
    let oracle = Oracle::new(&bytes).expect("pristine example must decode");
    let mut report = FuzzReport::default();
    with_quiet_panics(|| truncation_sweep(&bytes, |b| oracle.exercise(b), &mut report));
    assert_eq!(report.exercised as usize, bytes.len(), "one cut per offset");
    assert!(report.ok(), "truncation sweep found holes:\n{report}");
    // Every strict prefix is missing bytes, so none may decode identically;
    // the harness must have rejected each one.
    assert_eq!(report.rejected, report.exercised, "{report}");
}

#[test]
fn seeded_bit_flips_never_panic_or_return_wrong_data() {
    let bytes = example_object_bytes();
    let oracle = Oracle::new(&bytes).expect("pristine example must decode");
    let mut report = FuzzReport::default();
    with_quiet_panics(|| bit_flip_round(&bytes, |b| oracle.exercise(b), 1, 300, &mut report));
    assert_eq!(report.exercised, 300);
    assert!(report.ok(), "bit-flip round found holes:\n{report}");
    assert!(
        report.rejected > 0,
        "no flip was ever rejected — the checksums cannot be wired in"
    );
}

#[test]
fn section_table_shuffles_are_caught_even_with_a_fixed_header_checksum() {
    let bytes = example_object_bytes();
    let oracle = Oracle::new(&bytes).expect("pristine example must decode");
    let mut report = FuzzReport::default();
    with_quiet_panics(|| {
        section_shuffle_round(&bytes, &FORMAT, |b| oracle.exercise(b), 7, 100, &mut report);
    });
    assert_eq!(report.exercised, 100, "example must have >= 2 sections");
    assert!(report.ok(), "section shuffle found holes:\n{report}");
    // Odd iterations recompute the header checksum, so only the id-tagged
    // per-section checksums can reject them; none may slip through as
    // identical (swapped entries always move real bytes).
    assert_eq!(report.rejected, report.exercised, "{report}");
}

#[test]
fn fuzz_battery_is_deterministic_across_runs() {
    let bytes = example_object_bytes();
    let a = run_object_fuzz(&bytes, 42, 50).unwrap();
    let b = run_object_fuzz(&bytes, 42, 50).unwrap();
    assert!(a.ok() && b.ok(), "a:\n{a}\nb:\n{b}");
    assert_eq!(a.exercised, b.exercised);
    assert_eq!(a.rejected, b.rejected);
    assert_eq!(a.identical, b.identical);
}
