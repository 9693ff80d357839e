//! Lowering's output, pinned unit by unit: the `fnv64` of every unit's
//! encoded object (`UnitObject::encode`) for three inputs, printed by this
//! file at the commit before lowering resolved names through symbols.
//!
//! An encoded unit holds every object in creation order with its name, link
//! name, type text, location and enclosing function, every assignment, every
//! signature and the file table — so a faster lowering that moves one byte
//! here has changed what it emits, not how fast it emits it.

use cla::cladb::{fnv64, UnitObject};
use cla::prelude::*;
use std::path::Path;

/// Compiles every source of `fs` and hashes each unit's encoded object.
fn unit_hashes(fs: &MemoryFs, sources: &[String]) -> Vec<(String, u64)> {
    sources
        .iter()
        .map(|f| {
            let (unit, _) = compile_file(fs, f, &PpOptions::default(), &LowerOptions::default())
                .unwrap_or_else(|e| panic!("{f}: {e}"));
            (f.clone(), fnv64(UnitObject::encode(&unit).bytes()))
        })
        .collect()
}

fn examples_c() -> Vec<(String, u64)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/c");
    let mut fs = MemoryFs::new();
    for name in ["main.c", "store.c", "prog.h"] {
        fs.add(name, std::fs::read_to_string(dir.join(name)).unwrap());
    }
    unit_hashes(&fs, &["main.c".to_string(), "store.c".to_string()])
}

fn ci_small() -> Vec<(String, u64)> {
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
    unit_hashes(&fs, &sources)
}

fn nethack() -> Vec<(String, u64)> {
    let w = generate(by_name("nethack").unwrap(), &GenOptions::at_scale(0.2));
    let mut fs = MemoryFs::new();
    for (path, text) in &w.files {
        fs.add(path.clone(), text.clone());
    }
    let sources: Vec<String> = w.source_files().iter().map(|s| s.to_string()).collect();
    unit_hashes(&fs, &sources)
}

/// Compares `got` with `pins` and prints the whole table on a mismatch, in
/// the form this file spells its pins.
fn check(input: &str, got: Vec<(String, u64)>, pins: &[(&str, u64)]) {
    let same = got.len() == pins.len()
        && got
            .iter()
            .zip(pins)
            .all(|((f, h), (pf, ph))| f == pf && h == ph);
    if !same {
        let table: String = got
            .iter()
            .map(|(f, h)| format!("        (\"{f}\", {h:#018x}),\n"))
            .collect();
        panic!("{input}: unit objects moved; this build reads\n{table}");
    }
}

#[test]
fn examples_units_keep_their_bytes() {
    check(
        "examples/c",
        examples_c(),
        &[
            ("main.c", 0x2ddb8ab32f615504),
            ("store.c", 0xe450d1a4d3053a43),
        ],
    );
}

#[test]
fn ci_small_units_keep_their_bytes() {
    check(
        "ci-small",
        ci_small(),
        &[
            ("ci_small_0000.c", 0x9b4615c06d15efe9),
            ("ci_small_0001.c", 0x2551bf6a739f9474),
            ("ci_small_0002.c", 0x6e0d42a9debad67a),
            ("ci_small_0003.c", 0xe65e3bb1a8832b60),
            ("ci_small_0004.c", 0x64f07f658be23a42),
            ("ci_small_0005.c", 0xdc4b6ac03c20f236),
            ("ci_small_0006.c", 0x6ef54345d810ec49),
            ("ci_small_0007.c", 0x7de13b1dba04fef3),
        ],
    );
}

#[test]
fn nethack_units_keep_their_bytes() {
    check(
        "nethack@0.2",
        nethack(),
        &[
            ("nethack_0.c", 0x140924786e9bffa3),
            ("nethack_1.c", 0x319a563ac1a5f281),
            ("nethack_2.c", 0x930939673161dbfb),
            ("nethack_3.c", 0x84b9cf4d605cef77),
            ("nethack_4.c", 0xef4f68a7e109e584),
            ("nethack_5.c", 0x00c17959a68eac3d),
            ("nethack_6.c", 0x4234e07286b16b4f),
            ("nethack_7.c", 0x9872986ce2221278),
            ("nethack_8.c", 0xc16a4f40c45abce9),
            ("nethack_9.c", 0x779b777f29766daf),
            ("nethack_10.c", 0x73728a08e3e9fc2c),
            ("nethack_11.c", 0x5a35e41d54736394),
            ("nethack_12.c", 0xd2b72def13f1a09a),
            ("nethack_13.c", 0x4e04e04a20ab4b0f),
            ("nethack_14.c", 0x9af13c5c3aff1add),
            ("nethack_15.c", 0xa8e58387f468bd1a),
        ],
    );
}
