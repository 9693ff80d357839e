//! Allocation gate for the front end's fast lane.
//!
//! Tokens are `Copy` and identifiers are interned, so preprocessing a unit
//! allocates per file and per vector growth, not per token. This test counts
//! heap allocations with the `count-alloc` global allocator and fails when a
//! `to_vec()` or `to_string()` creeps back onto the per-token path. Without
//! the feature there is nothing to count and the test passes vacuously;
//! `scripts/verify.sh` and CI run it with `--features count-alloc`.
//!
//! It is the only test in this file on purpose: the counters are
//! process-wide, and a second test thread would allocate into them.

use cla::cfront::{pp, MemoryFs, PpOptions};
use cla::prelude::{generate_with, Profile};
use cla::prof::alloc_snapshot;
use std::path::Path;

/// Allocations per emitted token the preprocessor may make. The `ci-small`
/// units run near 0.01 (interner and vector growth, include resolution);
/// the `String`-token preprocessor made more than two.
const MAX_ALLOCS_PER_TOKEN: f64 = 0.05;

#[test]
fn preprocessing_does_not_allocate_per_token() {
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
    let opts = PpOptions::default();

    let before = alloc_snapshot().total_allocs;
    let mut tokens = 0;
    for unit in &units {
        tokens += pp::preprocess(&fs, unit, &opts).unwrap().stats.tokens_out;
    }
    let allocs = alloc_snapshot().total_allocs - before;

    assert!(tokens > 50_000, "only {tokens} tokens");
    let per_token = allocs as f64 / tokens as f64;
    assert!(
        per_token <= MAX_ALLOCS_PER_TOKEN,
        "{allocs} allocations for {tokens} tokens: {per_token:.4} per token, \
         limit {MAX_ALLOCS_PER_TOKEN}"
    );
    eprintln!("{allocs} allocations for {tokens} tokens: {per_token:.4} per token");
}
