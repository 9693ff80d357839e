//! Allocation gate for the solver.
//!
//! Opening a linked object and solving it to a sealed graph allocates per
//! signature, per block fetched, per graph node that gains an edge or a
//! base lval and per *distinct* lval set — neither the reader nor the
//! solver allocates for an object that takes part in nothing. The
//! solver's constructor used
//! to make two heap blocks for every object before the first assignment was
//! read (an empty cached set and a one-element block list), which on the
//! million tree is 0.8 M allocations for 409 514 objects. This test counts
//! heap allocations with the `count-alloc` global allocator and fails when
//! a per-object allocation creeps back. Without the feature there is
//! nothing to count and the test passes vacuously; `scripts/verify.sh` and
//! CI run it with `--features count-alloc`.
//!
//! It is the only test in this file, and not a second test of
//! `alloc_gate.rs`, on purpose: the counters are process-wide, and a second
//! test thread would allocate into them.

use cla::core::Warm;
use cla::prelude::*;
use cla::prof::alloc_snapshot;
use std::path::Path;

/// Allocations per object `Database::open` → `Warm::from_database` →
/// `seal` may make on the `ci-small` tree. It reads 2.82: 0.16 in `open`
/// (the string table copied whole, the file table, one parameter list per
/// signature), 2.03 in the fixpoint (decoded blocks, edge and base lists),
/// 0.63 in the sweep (the distinct sets). While `open` decoded every object
/// into an `ObjectInfo` — two strings an object — and filled a map of
/// target names, it alone was 3.8 and the total 6.42; with two blocks per
/// object in the solver's constructor and a fresh stack and accumulator per
/// `getLvals` the total was 9.6.
const MAX_ALLOCS_PER_OBJECT: f64 = 3.25;

#[test]
fn solving_does_not_allocate_per_object() {
    if !alloc_snapshot().enabled {
        eprintln!("count-alloc is off: nothing to measure");
        return;
    }
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
    let units: Vec<CompiledUnit> = (sources.iter())
        .map(|f| {
            compile_file(&fs, f, &PpOptions::default(), &LowerOptions::default())
                .unwrap()
                .0
        })
        .collect();
    let object = write_object(&link(&units, "a.out").0);

    let before = alloc_snapshot().total_allocs;
    let db = Database::open(object).unwrap();
    let sealed = Warm::from_database(&db, SolveOptions::default()).seal();
    let allocs = alloc_snapshot().total_allocs - before;

    let objects = sealed.object_count();
    assert!(objects > 4_000, "only {objects} objects");
    let per_object = allocs as f64 / objects as f64;
    assert!(
        per_object <= MAX_ALLOCS_PER_OBJECT,
        "{allocs} allocations for {objects} objects: {per_object:.2} per object, \
         limit {MAX_ALLOCS_PER_OBJECT}"
    );
    eprintln!("{allocs} allocations for {objects} objects: {per_object:.2} per object");
}
