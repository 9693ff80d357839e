//! Golden bytes for both on-disk formats over `examples/c`: caches and
//! snapshots written by earlier builds must keep loading, so a change that
//! moves a byte of a `.clao` or a `.clasnap` has to bump the format version
//! and re-take these pins on purpose.

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

#[test]
fn object_and_snapshot_bytes_match_the_pins() {
    let object = example_object();
    assert_eq!(
        fnv64(&object),
        0xee8f_1db1_6d8e_7b42,
        "{} object bytes",
        object.len()
    );

    let db = Database::open(object).unwrap();
    let solver = SolveOptions::default();
    let sealed = cla::core::Warm::from_database(&db, solver).seal();
    let names: Vec<String> = db.objects().iter().map(|o| o.name.clone()).collect();
    let prov = Provenance {
        inputs: vec![("a.out".to_string(), db.content_hash())],
        options_fp: 0x00c0_ffee,
        solver,
    };
    let snapshot = cla::snap::encode_snapshot(&prov, &sealed, &names);
    // The provenance embeds `content_hash`, the object's header checksum
    // since it stopped being a second pass over the bytes (the pin before
    // was 0x210b_8047_86d0_81d1); the format did not change.
    assert_eq!(
        fnv64(&snapshot),
        0x2e6b_8a08_83b1_710e,
        "{} snapshot bytes",
        snapshot.len()
    );
}
