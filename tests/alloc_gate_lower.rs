//! Allocation gate for lowering.
//!
//! Names reach lowering as interned symbols and resolve through arrays
//! indexed by them, types are borrowed from the AST, and every rvalue's
//! sources share one buffer — so lowering allocates for what it emits
//! (object names, link names, type text) and for vector growth, not per
//! expression. This test counts heap allocations with the `count-alloc`
//! global allocator and fails when a per-expression `String`, `Vec` or
//! `Type` clone creeps back. Without the feature there is nothing to count
//! and the test passes vacuously; `scripts/verify.sh` and CI run it with
//! `--features count-alloc`.
//!
//! It is the only test in this file on purpose: the counters are
//! process-wide, and a second test thread would allocate into them.

use cla::cfront::{parse_file, MemoryFs, PpOptions};
use cla::ir::{lower_unit, LowerOptions};
use cla::prelude::{generate_with, Profile};
use cla::prof::alloc_snapshot;
use std::path::Path;

/// Allocations per emitted assignment lowering may make on the `ci-small`
/// units. It reads 1.3: about two strings per object and the unit's
/// vectors. With `String`-keyed scopes, a cloned `Type` per object, a
/// `Vec` per rvalue and a re-interned file name per location it read 9.3.
const MAX_ALLOCS_PER_ASSIGN: f64 = 3.5;

#[test]
fn lowering_does_not_allocate_per_expression() {
    if !alloc_snapshot().enabled {
        eprintln!("count-alloc is off: nothing to measure");
        return;
    }
    let profile =
        Profile::load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("profiles/ci-small.toml"))
            .unwrap();
    let mut fs = MemoryFs::new();
    let mut units = Vec::new();
    generate_with(&profile, profile.seed, &mut |name, text| {
        if name.ends_with(".c") {
            units.push(name.to_owned());
        }
        fs.add(name.to_owned(), text.to_owned());
        Ok(())
    })
    .unwrap();
    let opts = LowerOptions::default();

    let (mut allocs, mut assigns) = (0, 0);
    for unit in &units {
        let parsed = parse_file(&fs, unit, &PpOptions::default()).unwrap();
        let before = alloc_snapshot().total_allocs;
        let lowered = lower_unit(&parsed.tu, &parsed.sources, &opts);
        allocs += alloc_snapshot().total_allocs - before;
        assigns += lowered.assigns.len();
    }

    assert!(assigns > 10_000, "only {assigns} assignments");
    let per_assign = allocs as f64 / assigns as f64;
    assert!(
        per_assign <= MAX_ALLOCS_PER_ASSIGN,
        "{allocs} allocations for {assigns} assignments: {per_assign:.2} per assignment, \
         limit {MAX_ALLOCS_PER_ASSIGN}"
    );
    eprintln!("{allocs} allocations for {assigns} assignments: {per_assign:.2} per assignment");
}
