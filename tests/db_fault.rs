//! Fault-injection tests over a real multi-section object file: every
//! corruption the deterministic harness can produce must surface as a typed
//! `DbError` or decode to exactly the pristine data — never a panic, never
//! a silently wrong answer.

use cla::cladb::fault::{
    bit_flip_round, resealed_each, resealed_round, run_fuzz, run_object_fuzz,
    section_shuffle_round, truncation_sweep, with_quiet_panics, FuzzReport, Oracle, Verdict,
};
use cla::cladb::{UnitObject, FORMAT};
use cla::core::{solve_database, SolveOptions};
use cla::prelude::*;
use std::collections::HashMap;
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

/// What a build does with a database it admitted: the solver indexes by
/// every id it reads.
fn solve(db: &Database) {
    let _ = solve_database(db, SolveOptions::default());
}

#[test]
fn resealed_references_are_rejected_by_range_checks_alone() {
    let bytes = example_object_bytes();
    let oracle = Oracle::new(&bytes).expect("pristine example must decode");
    let mut report = FuzzReport::default();
    with_quiet_panics(|| {
        let exercise = |b| oracle.exercise_and(b, solve);
        resealed_round(&bytes, exercise, 11, 400, &mut report);
    });
    assert_eq!(report.exercised, 400);
    assert!(report.ok(), "resealed round found holes:\n{report}");
    // Every checksum over the damage is valid and every damage is out of
    // range or out of shape: none may be admitted, let alone solved.
    assert_eq!(report.rejected, report.exercised, "{report}");
}

#[test]
fn verify_and_open_plus_verify_all_give_one_verdict_on_every_mutant() {
    // However bytes are admitted, one checker judges them: the linker's
    // route (`UnitObject::verify`) and the solver's (`Database::open`, then
    // `verify_all`) agree on every mutant of every round.
    let bytes = example_object_bytes();
    let agree = |b: Vec<u8>| {
        let verified = UnitObject::verify(b.clone()).is_ok();
        let opened = Database::open(b).and_then(|db| db.verify_all()).is_ok();
        match (verified, opened) {
            (true, true) => Verdict::Identical,
            (false, false) => Verdict::Rejected,
            _ => Verdict::WrongData,
        }
    };
    let mut report = run_fuzz(&bytes, &FORMAT, agree, 5, 300);
    with_quiet_panics(|| resealed_round(&bytes, agree, 5, 300, &mut report));
    assert!(report.ok(), "the two routes disagree:\n{report}");
    assert_eq!(report.exercised as usize, bytes.len() + 300 + 200 + 300);
    // Not vacuously: the undamaged file is admitted by both, and nearly
    // every mutant (all but a flip that cancels itself) by neither.
    assert_eq!(agree(bytes.clone()), Verdict::Identical);
    assert!(report.rejected > report.identical);
}

/// The generated `ci-small` tree, compiled and linked: a program of a few
/// thousand objects, many names resolving to more than one.
fn ci_small_object_bytes() -> Vec<u8> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let profile = Profile::load(&root.join("profiles/ci-small.toml")).unwrap();
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
    let units: Vec<CompiledUnit> = (sources.iter())
        .map(|f| {
            compile_file(&fs, f, &PpOptions::default(), &LowerOptions::default())
                .unwrap()
                .0
        })
        .collect();
    write_object(&link(&units, "a.out").0)
}

#[test]
fn a_trusted_object_reads_exactly_as_its_bytes_opened_cold() {
    for bytes in [example_object_bytes(), ci_small_object_bytes()] {
        let trusted = Database::from_object(UnitObject::verify(bytes.clone()).unwrap()).unwrap();
        let cold = Database::open(bytes).unwrap();
        assert_eq!(trusted.unit_name(), cold.unit_name());
        assert_eq!(trusted.objects(), cold.objects());
        assert_eq!(trusted.files(), cold.files());
        assert_eq!(trusted.funsigs(), cold.funsigs());
        assert_eq!(trusted.static_assigns(), cold.static_assigns());
        let mut names: Vec<&str> = cold.target_names().collect();
        names.sort_unstable();
        let mut trusted_names: Vec<&str> = trusted.target_names().collect();
        trusted_names.sort_unstable();
        assert_eq!(trusted_names, names);
        for db in [&trusted, &cold] {
            // What is read in place equals the decoded table.
            assert_eq!(db.object_count(), db.objects().len());
            for (id, decoded) in db.ids().zip(db.objects()) {
                let info = db.info(id);
                assert_eq!(info.to_info(), *decoded, "object {id:?}");
                assert_eq!((db.name(id), db.kind(id)), (info.name, info.kind));
            }
            // Every target name answers what a map filled pair by pair
            // from the decoded table would: its objects in id order.
            let mut by_name: HashMap<&str, Vec<ObjId>> = HashMap::new();
            for (id, o) in db.ids().zip(db.objects()) {
                if o.kind.is_program_object() || o.kind == ObjKind::Heap {
                    by_name.entry(o.name.as_str()).or_default().push(id);
                }
            }
            assert_eq!(by_name.len(), names.len());
            for name in &names {
                assert_eq!(db.targets(name), by_name[name].as_slice(), "{name}");
            }
            assert!(db.targets("no such name").is_empty());
            assert!(db.targets("").is_empty());
        }
        for id in cold.ids() {
            assert_eq!(trusted.block(id), cold.block(id), "block {id:?}");
            assert_eq!(trusted.funsig(id), cold.funsig(id));
        }
        assert!(trusted.verify_all().is_ok());
        assert_eq!(trusted.content_hash(), cold.content_hash());
    }
}

#[test]
fn target_pairs_out_of_order_are_rejected_however_the_bytes_are_admitted() {
    // The writer sorts the target section; a resealed file whose pairs are
    // shuffled, or repeat one, is refused by both routes in, before any
    // lookup could answer differently from the pristine file.
    let bytes = example_object_bytes();
    let oracle = Oracle::new(&bytes).expect("pristine example must decode");
    let mut report = FuzzReport::default();
    with_quiet_panics(|| {
        let exercise = |b: Vec<u8>| {
            assert!(UnitObject::verify(b.clone()).is_err());
            oracle.exercise_and(b, solve)
        };
        resealed_each(&bytes, "target: pairs", exercise, 25, &mut report);
    });
    assert!(report.ok(), "{report}");
    assert_eq!((report.exercised, report.rejected), (50, 50), "{report}");
}

#[test]
fn fuzz_battery_is_deterministic_across_runs() {
    let bytes = example_object_bytes();
    let a = run_object_fuzz(&bytes, 42, 50, solve).unwrap();
    let b = run_object_fuzz(&bytes, 42, 50, solve).unwrap();
    assert!(a.ok() && b.ok(), "a:\n{a}\nb:\n{b}");
    assert_eq!(a.exercised, b.exercised);
    assert_eq!(a.rejected, b.rejected);
    assert_eq!(a.identical, b.identical);
}
