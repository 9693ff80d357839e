//! Lowering's output, pinned unit by unit: the `fnv64` of every unit's
//! encoded object (`UnitObject::encode`) for three inputs, printed by this
//! file at the commit before lowering resolved names through symbols, and
//! re-taken once when the format's checksums moved to XXH64 (the old value
//! beside each).
//! Beside each raw pin is a content pin: the same object with its checksums
//! and version word zeroed (`checksums_zeroed`), taken before the format's
//! checksums moved from FNV-1a to XXH64 — what lowering emits, whatever
//! hash seals it.
//!
//! An encoded unit holds every object in creation order with its name, link
//! name, type text, location and enclosing function, every assignment, every
//! signature and the file table — so a faster lowering that moves one byte
//! here has changed what it emits, not how fast it emits it.

use cla::cladb::fault::checksums_zeroed;
use cla::cladb::{fnv64, UnitObject, FORMAT};
use cla::prelude::*;
use std::path::Path;
use std::sync::OnceLock;

/// Each source's name and encoded unit object.
type Units = Vec<(String, Vec<u8>)>;

/// Compiles every source of `fs` and encodes each unit's object.
fn unit_objects(fs: &MemoryFs, sources: &[String]) -> Units {
    sources
        .iter()
        .map(|f| {
            let (unit, _) = compile_file(fs, f, &PpOptions::default(), &LowerOptions::default())
                .unwrap_or_else(|e| panic!("{f}: {e}"));
            (f.clone(), UnitObject::encode(&unit).bytes().to_vec())
        })
        .collect()
}

/// The `fnv64` of every unit's bytes.
fn raw(units: &Units) -> Vec<(String, u64)> {
    (units.iter()).map(|(f, b)| (f.clone(), fnv64(b))).collect()
}

/// The `fnv64` of every unit's content: its bytes with their checksums and
/// version word zeroed.
fn content(units: &Units) -> Vec<(String, u64)> {
    (units.iter())
        .map(|(f, b)| (f.clone(), fnv64(&checksums_zeroed(b, &FORMAT))))
        .collect()
}

fn examples_c() -> &'static Units {
    static UNITS: OnceLock<Units> = OnceLock::new();
    UNITS.get_or_init(|| {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/c");
        let mut fs = MemoryFs::new();
        for name in ["main.c", "store.c", "prog.h"] {
            fs.add(name, std::fs::read_to_string(dir.join(name)).unwrap());
        }
        unit_objects(&fs, &["main.c".to_string(), "store.c".to_string()])
    })
}

fn ci_small() -> &'static Units {
    static UNITS: OnceLock<Units> = OnceLock::new();
    UNITS.get_or_init(|| {
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
        unit_objects(&fs, &sources)
    })
}

fn nethack() -> &'static Units {
    static UNITS: OnceLock<Units> = OnceLock::new();
    UNITS.get_or_init(|| {
        let w = generate(by_name("nethack").unwrap(), &GenOptions::at_scale(0.2));
        let mut fs = MemoryFs::new();
        for (path, text) in &w.files {
            fs.add(path.clone(), text.clone());
        }
        let sources: Vec<String> = w.source_files().iter().map(|s| s.to_string()).collect();
        unit_objects(&fs, &sources)
    })
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
        raw(examples_c()),
        &[
            ("main.c", 0xb51d565d42d63105),  // was 0x2ddb8ab32f615504
            ("store.c", 0xfac96df0cc44f369), // was 0xe450d1a4d3053a43
        ],
    );
}

#[test]
fn ci_small_units_keep_their_bytes() {
    check(
        "ci-small",
        raw(ci_small()),
        &[
            ("ci_small_0000.c", 0x39752cdb369a20ef), // was 0x9b4615c06d15efe9
            ("ci_small_0001.c", 0x6299c8c4e8987af2), // was 0x2551bf6a739f9474
            ("ci_small_0002.c", 0xc121100f9badea98), // was 0x6e0d42a9debad67a
            ("ci_small_0003.c", 0x0812fd7d6298c417), // was 0xe65e3bb1a8832b60
            ("ci_small_0004.c", 0x497b554a2f948713), // was 0x64f07f658be23a42
            ("ci_small_0005.c", 0xd7b3db0e799bcf9c), // was 0xdc4b6ac03c20f236
            ("ci_small_0006.c", 0x5200815627f000a0), // was 0x6ef54345d810ec49
            ("ci_small_0007.c", 0xf12fae907a771555), // was 0x7de13b1dba04fef3
        ],
    );
}

#[test]
fn nethack_units_keep_their_bytes() {
    check(
        "nethack@0.2",
        raw(nethack()),
        &[
            ("nethack_0.c", 0xa026f6881eaffcc3),  // was 0x140924786e9bffa3
            ("nethack_1.c", 0x675cc1666c501211),  // was 0x319a563ac1a5f281
            ("nethack_2.c", 0x69fdeafd584262fb),  // was 0x930939673161dbfb
            ("nethack_3.c", 0xc64ff73cb4d45f85),  // was 0x84b9cf4d605cef77
            ("nethack_4.c", 0x520938cf38dc941a),  // was 0xef4f68a7e109e584
            ("nethack_5.c", 0x36d607364b172174),  // was 0x00c17959a68eac3d
            ("nethack_6.c", 0x2568d537ede0fd7b),  // was 0x4234e07286b16b4f
            ("nethack_7.c", 0xdc3f0f7921351dff),  // was 0x9872986ce2221278
            ("nethack_8.c", 0x0ba17f36eb1aad53),  // was 0xc16a4f40c45abce9
            ("nethack_9.c", 0x0f32d908a10ad874),  // was 0x779b777f29766daf
            ("nethack_10.c", 0x8c411ae5f1dfaf9b), // was 0x73728a08e3e9fc2c
            ("nethack_11.c", 0xc1c13be60183156b), // was 0x5a35e41d54736394
            ("nethack_12.c", 0x17e23c0752e7e61d), // was 0xd2b72def13f1a09a
            ("nethack_13.c", 0xc42943825ef165fc), // was 0x4e04e04a20ab4b0f
            ("nethack_14.c", 0xc15f65142d322c69), // was 0x9af13c5c3aff1add
            ("nethack_15.c", 0x72f17efd3ad263e4), // was 0xa8e58387f468bd1a
        ],
    );
}

#[test]
fn examples_units_keep_their_content() {
    check(
        "examples/c content",
        content(examples_c()),
        &[
            ("main.c", 0xb09da7f3eeb78775),
            ("store.c", 0x8fdd9b024e277f30),
        ],
    );
}

#[test]
fn ci_small_units_keep_their_content() {
    check(
        "ci-small content",
        content(ci_small()),
        &[
            ("ci_small_0000.c", 0x8e92cd9b0d097874),
            ("ci_small_0001.c", 0x5eec29200f09e8d0),
            ("ci_small_0002.c", 0x2e6fcd1be3add618),
            ("ci_small_0003.c", 0x475b44f193f8e455),
            ("ci_small_0004.c", 0x70503137459b67b1),
            ("ci_small_0005.c", 0xad38c072727cf589),
            ("ci_small_0006.c", 0x1cd87e66e298af76),
            ("ci_small_0007.c", 0xc5dd1bfb6ecc787d),
        ],
    );
}

#[test]
fn nethack_units_keep_their_content() {
    check(
        "nethack@0.2 content",
        content(nethack()),
        &[
            ("nethack_0.c", 0x15b721d282b02e9b),
            ("nethack_1.c", 0x7a11d290becaec67),
            ("nethack_2.c", 0xb6a07509b3ab3331),
            ("nethack_3.c", 0x88b45447eab64d27),
            ("nethack_4.c", 0x707ea873cf5e77d2),
            ("nethack_5.c", 0x11e1b22154c170e7),
            ("nethack_6.c", 0xab1a8c00b511e8fc),
            ("nethack_7.c", 0xad6207dec7797dbf),
            ("nethack_8.c", 0xa3dd9e17f67796b3),
            ("nethack_9.c", 0x54ffd82623c61465),
            ("nethack_10.c", 0x15612423f568c97a),
            ("nethack_11.c", 0x82fb9ca16bcd4eb2),
            ("nethack_12.c", 0x7e76e3f52bed42ee),
            ("nethack_13.c", 0x619f235c336617ee),
            ("nethack_14.c", 0x0c11e4712f70a28e),
            ("nethack_15.c", 0x73ff4a03d83b5714),
        ],
    );
}
