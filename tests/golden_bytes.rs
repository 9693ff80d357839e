//! Golden bytes for both on-disk formats over `examples/c`: caches and
//! snapshots written by earlier builds must keep loading, so a change that
//! moves a byte of a `.clao` or a `.clasnap` has to bump the format version
//! and re-take these pins on purpose.
//!
//! Two pins per format. The raw pin covers every byte. The content pin
//! covers the bytes with their checksums and version word zeroed: taken
//! before the checksums moved from FNV-1a to XXH64 and unedited across
//! that change, it is what says the swap left the meaning of every other
//! byte alone. The snapshot's content pin moved once since, when v3 dropped
//! the name tables.

use cla::cladb::fault::checksums_zeroed;
use cla::cladb::fnv64;
use cla::core::pipeline::{
    closure_hash, manifest_key, options_fingerprint, program_key, Build, CompileCache, Provenance,
};
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
    let prov = Provenance {
        inputs: vec![("a.out".to_string(), input_hash(&db))],
        options_fp: 0x00c0_ffee,
        solver,
    };
    cla::snap::encode(&prov, &sealed)
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
        0x9801_fc01_16b9_f5e7, // v1 and v2, with name tables: 0xc3ee_af32_82b3_7ec9
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
        0x2eba_cd65_67b3_917d, // v2: 0x8672_c30c_4f20_6b4e; v1, FNV-1a: 0x2e6b_8a08_83b1_710e
        "{} snapshot bytes",
        snapshot.len()
    );
}

/// A compile cache that holds nothing and records what it is handed: the
/// key of each object, and each manifest's key and the `fnv64` of its bytes.
#[derive(Default)]
struct Recording {
    objects: std::sync::Mutex<Vec<u64>>,
    manifests: std::sync::Mutex<Vec<(u64, u64)>>,
}

impl CompileCache for Recording {
    fn load(&self, _key: u64) -> Option<Vec<u8>> {
        None
    }
    fn store(&self, key: u64, _bytes: &[u8]) {
        self.objects.lock().unwrap().push(key);
    }
    fn store_manifest(&self, key: u64, bytes: &[u8]) {
        self.manifests.lock().unwrap().push((key, fnv64(bytes)));
    }
}

/// The keys the stores file things under, over `examples/c` in a
/// `MemoryFs` with default options: the options fingerprint, each file's
/// closure key, the program key of a batch build's provenance, and each
/// manifest's key and bytes. A moved key strands every cache and snapshot
/// written before it, so these may only move on purpose, like the format
/// pins above.
#[test]
fn store_keys_match_the_pins() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/c");
    let mut fs = MemoryFs::new();
    for name in ["main.c", "store.c", "prog.h"] {
        fs.add(name, std::fs::read_to_string(dir.join(name)).unwrap());
    }
    let opts = PipelineOptions::default();
    let fp = options_fingerprint(&opts.pp, &opts.lower);
    assert_eq!(fp, 0x53f1_10a2_31d9_17da, "options_fingerprint");
    let closures: Vec<(String, u64)> = ["main.c", "store.c"]
        .map(|f| {
            let pre = cla::cfront::preprocess_file(&fs, f, &opts.pp).unwrap();
            (f.to_string(), closure_hash(&pre, f, fp))
        })
        .into();
    assert_eq!(
        closures,
        [
            ("main.c".to_string(), 0x6ad6_4076_19f4_6d6d),
            ("store.c".to_string(), 0x6e54_b937_f96c_3a39),
        ],
        "closure_hash"
    );

    let cache = Recording::default();
    let hooks = AnalyzeHooks {
        compile_cache: Some(&cache),
        snapshots: None,
    };
    let files = vec!["main.c".to_string(), "store.c".to_string()];
    let built = Build::new(files, opts, false)
        .link(&fs, &hooks, false)
        .unwrap()
        .expect("a first build links");
    assert_eq!(built.provenance.inputs, closures);
    assert_eq!(built.provenance.options_fp, fp);
    assert_eq!(
        program_key(&built.provenance),
        0x3460_c564_0093_ebb5,
        "program_key"
    );
    let objects = cache.objects.into_inner().unwrap();
    assert_eq!(
        objects,
        closures.iter().map(|(_, k)| *k).collect::<Vec<_>>()
    );
    assert_eq!(
        ["main.c", "store.c"].map(|f| manifest_key(f, fp)),
        [0x3508_85a6_b7ca_ae20, 0x4265_a6f7_6739_27e7],
        "manifest_key"
    );
    assert_eq!(
        cache.manifests.into_inner().unwrap(),
        [
            (0x3508_85a6_b7ca_ae20, 0xf195_9c77_24fb_66cf),
            (0x4265_a6f7_6739_27e7, 0x1a0c_c4bd_d5a1_62cb),
        ],
        "manifest keys and bytes"
    );
}
