//! Object-file format tests: forward compatibility (unknown sections are
//! ignored, as §4 promises for COFF/ELF-style containers), version gating,
//! and corruption detection.

use cla_cladb::container::Header;
use cla_cladb::fault::with_extra_section;
use cla_cladb::{
    write_object, ContainerError, Database, DbError, FORMAT, HEADER_FIXED_SIZE, MAGIC,
};
use cla_ir::{compile_source, LowerOptions};

fn sample_bytes() -> Vec<u8> {
    let unit = compile_source(
        "int x, *p, *q; void f(void) { p = &x; q = p; x = *q; }",
        "a.c",
        &LowerOptions::default(),
    )
    .unwrap();
    write_object(&unit)
}

#[test]
fn unknown_sections_are_ignored() {
    let orig = sample_bytes();
    let extended = with_extra_section(&orig, &FORMAT, 999, b"future feature data");
    let db_orig = Database::open(orig).unwrap();
    let db_ext = Database::open(extended).expect("readers skip unknown sections");
    assert_eq!(db_orig.objects().len(), db_ext.objects().len());
    assert_eq!(
        db_orig.to_unit().unwrap().assign_counts(),
        db_ext.to_unit().unwrap().assign_counts()
    );
}

#[test]
fn duplicate_section_id_is_rejected() {
    // Which of two same-id entries a reader would pick is a guess; the
    // container refuses the file instead.
    let orig = sample_bytes();
    let mut header = Header::read(&orig, &FORMAT).unwrap();
    let bodies = &orig[header.encoded_len()..];
    header.table[1].id = header.table[0].id;
    header.seal();
    match Database::open([&header.encode(&FORMAT), bodies].concat()) {
        Err(DbError::Container(ContainerError::Corrupt(msg))) => {
            assert!(msg.contains("duplicate section id"), "{msg}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn previous_format_version_is_rejected_with_clear_message() {
    // A v1 file (no checksum fields) must be refused up front with
    // `BadVersion`, never misparsed under the v2 layout.
    let orig = sample_bytes();
    let nsections = Header::read(&orig, &FORMAT).unwrap().table.len() as u32;
    let mut v1 = Vec::new();
    v1.extend_from_slice(&MAGIC.to_le_bytes());
    v1.extend_from_slice(&1u32.to_le_bytes());
    v1.extend_from_slice(&nsections.to_le_bytes());
    // v1 entries were (id, offset, len) = 20 bytes; content is irrelevant —
    // the version gate must fire before any of it is parsed.
    v1.extend_from_slice(&vec![0u8; nsections as usize * 20]);
    v1.extend_from_slice(&orig[HEADER_FIXED_SIZE..]);
    match Database::open(v1) {
        Err(DbError::Container(ContainerError::BadVersion(1))) => {}
        other => panic!("expected BadVersion(1), got {other:?}"),
    }
    assert_eq!(
        DbError::from(ContainerError::BadVersion(1)).to_string(),
        "unsupported CLA object version 1"
    );
}

#[test]
fn header_checksum_catches_section_table_damage() {
    let orig = sample_bytes();
    // Flip a byte inside the first section entry's offset field.
    let mut bytes = orig.clone();
    bytes[HEADER_FIXED_SIZE + 5] ^= 0x01;
    match Database::open(bytes) {
        Err(DbError::Container(ContainerError::Checksum(what))) => {
            assert!(what.contains("section table"), "{what}");
        }
        other => panic!("expected a checksum error, got {other:?}"),
    }
}

#[test]
fn every_truncation_point_is_rejected_or_consistent() {
    // Cutting the file anywhere must never panic; it either errors at open
    // or (if all sections happen to remain intact) behaves identically.
    let orig = sample_bytes();
    let full = Database::open(orig.clone()).unwrap().to_unit().unwrap();
    for cut in (0..orig.len()).step_by(7) {
        let sliced = orig[..cut].to_vec();
        match Database::open(sliced) {
            Err(_) => {}
            Ok(db) => match db.to_unit() {
                Err(_) => {}
                Ok(unit) => assert_eq!(unit.assign_counts(), full.assign_counts()),
            },
        }
    }
}

#[test]
fn byte_flips_in_header_never_panic() {
    let orig = sample_bytes();
    for pos in 0..orig.len().min(200) {
        let mut bytes = orig.clone();
        bytes[pos] ^= 0xff;
        // Must not panic; errors (or degraded-but-consistent reads) are fine.
        if let Ok(db) = Database::open(bytes) {
            let _ = db.to_unit();
            let _ = db.static_assigns();
        }
    }
}
