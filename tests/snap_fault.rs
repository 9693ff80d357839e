//! Fault-injection tests over the snapshot format: every corruption the
//! deterministic harness can produce — truncation at each byte offset,
//! seeded bit flips, section-table shuffles — must surface as a typed
//! `SnapError` or decode to exactly the pristine graph, never a panic and
//! never a silently different answer.

use cla::cladb::fault::{
    bit_flip_round, section_shuffle_round, truncation_sweep, with_quiet_panics, FuzzReport,
};
use cla::prelude::*;
use cla::snap::fault::{run_snap_fuzz, SnapOracle};
use cla::snap::FORMAT;

/// Builds real snapshot bytes from a generated multi-file workload: solve,
/// seal, encode. Exercises every snapshot section including shared sets.
fn example_snapshot_bytes() -> Vec<u8> {
    let spec = by_name("nethack").unwrap();
    let w = generate(
        spec,
        &GenOptions {
            scale: 0.02,
            files: 2,
            seed: 5,
            ..Default::default()
        },
    );
    let mut fs = MemoryFs::new();
    for (p, c) in &w.files {
        fs.add(p.clone(), c.clone());
    }
    let names: Vec<String> = w.source_files().iter().map(|s| s.to_string()).collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let analysis = analyze(&fs, &refs, &PipelineOptions::default()).unwrap();
    let db = &analysis.database;

    let opts = SolveOptions::default();
    let sealed = cla::core::Warm::from_database(db, opts).seal();
    let object_names: Vec<String> = db.objects().iter().map(|o| o.name.clone()).collect();
    let prov = cla::serve::object_provenance("fuzz-oracle", 0x1234_5678, opts);
    cla::snap::encode_snapshot(&prov, &sealed, &object_names)
}

#[test]
fn snapshot_truncation_at_every_offset_is_rejected() {
    let bytes = example_snapshot_bytes();
    assert!(bytes.len() > 300, "example snapshot suspiciously small");
    let oracle = SnapOracle::new(&bytes).expect("pristine snapshot must decode");
    let mut report = FuzzReport::default();
    with_quiet_panics(|| truncation_sweep(&bytes, |b| oracle.exercise(b), &mut report));
    assert_eq!(report.exercised as usize, bytes.len(), "one cut per offset");
    assert!(report.ok(), "truncation sweep found holes:\n{report}");
    // A strict prefix always loses bytes a full load needs, so every cut
    // must be rejected with a typed error.
    assert_eq!(report.rejected, report.exercised, "{report}");
}

#[test]
fn snapshot_bit_flips_never_panic_or_change_the_graph() {
    let bytes = example_snapshot_bytes();
    let oracle = SnapOracle::new(&bytes).expect("pristine snapshot must decode");
    let mut report = FuzzReport::default();
    with_quiet_panics(|| bit_flip_round(&bytes, |b| oracle.exercise(b), 3, 400, &mut report));
    assert_eq!(report.exercised, 400);
    assert!(report.ok(), "bit-flip round found holes:\n{report}");
    assert!(
        report.rejected > 0,
        "no flip was ever rejected — the checksums cannot be wired in"
    );
}

#[test]
fn snapshot_section_shuffles_are_caught() {
    let bytes = example_snapshot_bytes();
    let oracle = SnapOracle::new(&bytes).expect("pristine snapshot must decode");
    let mut report = FuzzReport::default();
    with_quiet_panics(|| {
        section_shuffle_round(&bytes, &FORMAT, |b| oracle.exercise(b), 9, 100, &mut report);
    });
    assert_eq!(report.exercised, 100);
    assert!(report.ok(), "section shuffle found holes:\n{report}");
    // Half the shuffles recompute the header checksum, so only the
    // id-tagged per-section checksums stand between a swapped table and a
    // scrambled graph.
    assert_eq!(report.rejected, report.exercised, "{report}");
}

#[test]
fn snap_fuzz_battery_is_deterministic_and_clean() {
    let bytes = example_snapshot_bytes();
    let a = run_snap_fuzz(&bytes, 42, 100).unwrap();
    let b = run_snap_fuzz(&bytes, 42, 100).unwrap();
    assert!(a.ok() && b.ok(), "a:\n{a}\nb:\n{b}");
    assert_eq!(a.exercised, b.exercised);
    assert_eq!(a.rejected, b.rejected);
    assert_eq!(a.identical, b.identical);
    assert!(
        a.exercised > bytes.len() as u64,
        "battery must cover truncation plus flips plus shuffles"
    );
}
