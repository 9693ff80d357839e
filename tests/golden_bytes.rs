//! Golden bytes for both on-disk formats over `examples/c`: caches and
//! snapshots written by earlier builds must keep loading, so a change that
//! moves a byte of a `.clao` or a `.clasnap` has to bump the format version
//! and re-take these pins on purpose.
//!
//! Two pins per format. The raw pin covers every byte. The content pin
//! covers the bytes with their checksums and version word zeroed: taken
//! before the checksums moved from FNV-1a to XXH64 and unedited since, it
//! is what says that change left the meaning of every other byte alone.

use cla::cladb::fault::checksums_zeroed;
use cla::cladb::fnv64;
use cla::core::pipeline::Provenance;
use cla::prelude::*;
use std::path::Path;

/// `examples/c` compiled and linked from a `MemoryFs`, so no checkout path
/// leaks into the file table.
fn example_object() -> Vec<u8> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/c");
    let mut fs = MemoryFs::new();
    for name in ["main.c", "store.c", "prog.h"] {
        fs.add(name, std::fs::read_to_string(dir.join(name)).unwrap());
    }
    let units = ["main.c", "store.c"].map(|f| {
        compile_file(&fs, f, &PpOptions::default(), &LowerOptions::default())
            .unwrap()
            .0
    });
    let (program, _) = link(&units, "a.out");
    write_object(&program)
}

/// The snapshot of `object`'s solved graph, its provenance naming the
/// object by `input_hash`.
fn example_snapshot(object: Vec<u8>, input_hash: impl Fn(&Database) -> u64) -> Vec<u8> {
    let db = Database::open(object).unwrap();
    let solver = SolveOptions::default();
    let sealed = cla::core::Warm::from_database(&db, solver).seal();
    let names: Vec<String> = db.objects().iter().map(|o| o.name.clone()).collect();
    let prov = Provenance {
        inputs: vec![("a.out".to_string(), input_hash(&db))],
        options_fp: 0x00c0_ffee,
        solver,
    };
    cla::snap::encode_snapshot(&prov, &sealed, &names)
}

/// Both formats with their checksums and version words zeroed
/// ([`checksums_zeroed`]): what the bytes say, whatever hash seals them. The
/// snapshot's provenance names the object by a constant, since the
/// object's own root checksum is one of the things zeroed.
#[test]
fn object_and_snapshot_content_match_the_pins() {
    let object = example_object();
    let content = checksums_zeroed(&object, &cla::cladb::FORMAT);
    assert_eq!(
        fnv64(&content),
        0x4b48_b50f_8380_a1b6,
        "{} object bytes",
        object.len()
    );
    let snapshot = example_snapshot(object, |_| 0x5eed);
    let content = checksums_zeroed(&snapshot, &cla::snap::FORMAT);
    assert_eq!(
        fnv64(&content),
        0xc3ee_af32_82b3_7ec9,
        "{} snapshot bytes",
        snapshot.len()
    );
}

#[test]
fn object_and_snapshot_bytes_match_the_pins() {
    let object = example_object();
    assert_eq!(
        fnv64(&object),
        0x4545_bd2a_ca21_c382, // v3, FNV-1a checksums: 0xee8f_1db1_6d8e_7b42
        "{} object bytes",
        object.len()
    );

    let snapshot = example_snapshot(object, Database::content_hash);
    // The provenance embeds `content_hash`, the object's header checksum
    // since it stopped being a second pass over the bytes (the pin before
    // was 0x210b_8047_86d0_81d1; the format did not change then).
    assert_eq!(
        fnv64(&snapshot),
        0x8672_c30c_4f20_6b4e, // v1, FNV-1a checksums: 0x2e6b_8a08_83b1_710e
        "{} snapshot bytes",
        snapshot.len()
    );
}
