//! The CLA object-file binary format.
//!
//! One instantiation ([`FORMAT`]) of the sectioned, checksummed
//! [`container`](crate::container) (in the spirit of COFF/ELF — paper §4),
//! with these sections:
//!
//! ```text
//! string    interned strings (names, types, file names)
//! file      file-name table (string ids)
//! object    object metadata records
//! global    linking information: (link name, object) pairs
//! static    address-of assignments `x = &y` — always loaded for points-to
//! dynamic   per-object blocks of assignments keyed by *source* object,
//!           with an offset index so a block is found in one lookup
//! funsig    function / function-pointer signature records
//! target    name → objects index for dependence-analysis targets
//! meta      unit name, assignment totals
//! ```
//!
//! New sections can be added without breaking existing readers: readers look
//! sections up by id and ignore unknown ids (paper §4: "new sections can be
//! transparently added ... existing analysis systems do not need to be
//! rewritten").

use crate::container::{ContainerError, Format};
use std::fmt;

/// Magic number at offset 0: `"CLA\x01"` little-endian.
pub const MAGIC: u32 = 0x014C_4143;

/// Format version written by this crate.
///
/// * v1 — sectioned container, no integrity data.
/// * v2 — adds a 64-bit FNV-1a checksum per section-table entry (the
///   section id hashed ahead of the body), a header checksum covering the
///   section table, and a per-block checksum in the dynamic index. v1 files
///   are rejected with [`ContainerError::BadVersion`] rather than misparsed.
/// * v3 — adds a per-object flags byte (bit 0 = symbol is *defined*, not
///   merely referenced) to the object section, so a partial analysis can
///   find the referenced-but-undefined globals that need conservative
///   summaries. v1/v2 files are rejected with
///   [`ContainerError::BadVersion`].
/// * v4 — every checksum is [`xxh64`](crate::xxh64): the header and block
///   sums at seed 0, each section's seeded with its id. Same bytes covered,
///   same layout; only the stored sums differ, so v3 files are rejected with
///   [`ContainerError::BadVersion`] (a compile cache counts them as damaged
///   entries and recompiles).
pub const VERSION: u32 = 4;

/// The object format as an instantiation of the shared
/// [`container`](crate::container).
pub static FORMAT: Format = Format {
    magic: MAGIC,
    version: VERSION,
    kind: "CLA object",
    checksum_fail_metric: "cla_db_checksum_fail_total",
};

/// Section identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum SectionId {
    String = 1,
    File = 2,
    Object = 3,
    Global = 4,
    Static = 5,
    Dynamic = 6,
    FunSig = 7,
    Target = 8,
    Meta = 9,
}

impl SectionId {
    /// All known sections, in canonical order.
    pub const ALL: [SectionId; 9] = [
        SectionId::String,
        SectionId::File,
        SectionId::Object,
        SectionId::Global,
        SectionId::Static,
        SectionId::Dynamic,
        SectionId::FunSig,
        SectionId::Target,
        SectionId::Meta,
    ];

    /// Section id from its wire value.
    pub fn from_u32(v: u32) -> Option<SectionId> {
        SectionId::ALL.into_iter().find(|&id| id as u32 == v)
    }

    /// Human-readable section name (for dumps).
    pub fn name(self) -> &'static str {
        match self {
            SectionId::String => "string",
            SectionId::File => "file",
            SectionId::Object => "object",
            SectionId::Global => "global",
            SectionId::Static => "static",
            SectionId::Dynamic => "dynamic",
            SectionId::FunSig => "funsig",
            SectionId::Target => "target",
            SectionId::Meta => "meta",
        }
    }
}

impl fmt::Display for SectionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Sentinel for "no string" / "no object" references on the wire.
pub const NONE_U32: u32 = u32::MAX;

/// Errors from reading or writing an object file: whatever the container
/// or a section-body decoder found wrong with the bytes, or the file system
/// with the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// The bytes are not a well-formed, undamaged object file.
    Container(ContainerError),
    /// The object file could not be read or written.
    Io(String),
}

impl From<ContainerError> for DbError {
    fn from(e: ContainerError) -> Self {
        DbError::Container(e)
    }
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Container(e) => e.fmt_for(FORMAT.kind, f),
            DbError::Io(msg) => write!(f, "object file I/O error: {msg}"),
        }
    }
}

impl std::error::Error for DbError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_ids_roundtrip() {
        for s in SectionId::ALL {
            assert_eq!(SectionId::from_u32(s as u32), Some(s));
        }
        assert_eq!(SectionId::from_u32(0), None);
        assert_eq!(SectionId::from_u32(100), None);
    }

    #[test]
    fn section_names() {
        assert_eq!(SectionId::Dynamic.name(), "dynamic");
        assert_eq!(format!("{}", SectionId::Static), "static");
    }

    #[test]
    fn error_display() {
        let bad_version = DbError::from(ContainerError::BadVersion(9));
        assert_eq!(bad_version.to_string(), "unsupported CLA object version 9");
        assert!(DbError::Io("nope".into()).to_string().contains("nope"));
    }
}
