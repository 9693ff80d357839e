//! Snapshot file format constants and the typed error.
//!
//! A `.clasnap` file persists a solved [`cla_core::SealedGraph`] in the
//! sectioned, checksummed container `cla_cladb::container` defines — the
//! same one `.clao` object files use (DESIGN.md §10), instantiated here as
//! [`FORMAT`]. What is the snapshot's own is which sections exist and when
//! they are verified: opening validates only the header and the provenance
//! record, and every other section's id-tagged checksum is checked on first
//! access, so the multi-megabyte set payload is not hashed until (unless) a
//! caller actually loads the graph.

use cla_cladb::container::{ContainerError, Format};

/// Snapshot file magic: `CLAS` in little-endian byte order. Distinct from
/// the object-file magic so neither reader ever half-decodes the other's
/// files.
pub const MAGIC: u32 = 0x5341_4C43;

/// Snapshot format version. Bumped on any layout change; old versions are
/// rejected with [`ContainerError::BadVersion`], never migrated silently.
pub const VERSION: u32 = 1;

/// The snapshot format as an instantiation of the shared container.
pub static FORMAT: Format = Format {
    magic: MAGIC,
    version: VERSION,
    kind: "snapshot",
    checksum_fail_metric: "cla_snap_checksum_fail_total",
};

/// Section identifiers. Ids are tag inputs to the per-section checksums,
/// so two sections swapped wholesale in the table are still caught.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum SnapSectionId {
    /// Provenance: solver options, options fingerprint, per-input closure
    /// hashes, object count. The only section verified at open time.
    Prov = 1,
    /// Interned string payload for object names.
    Strings = 2,
    /// Per-object display-name string id.
    Names = 3,
    /// Per-object set id into [`SnapSectionId::Sets`] (`NONE_U32` = empty),
    /// the flattened representative table: SCC members and hash-consed
    /// duplicates carry the same id, which the loader turns back into a
    /// shared `Arc`.
    Reps = 4,
    /// Distinct points-to sets, each encoded once: count, then per set a
    /// length and its sorted object ids.
    Sets = 5,
    /// The [`cla_core::SolveStats`] of the solve that produced the graph.
    Stats = 6,
}

impl SnapSectionId {
    /// All sections a writer emits, in file order.
    pub const ALL: [SnapSectionId; 6] = [
        SnapSectionId::Prov,
        SnapSectionId::Strings,
        SnapSectionId::Names,
        SnapSectionId::Reps,
        SnapSectionId::Sets,
        SnapSectionId::Stats,
    ];

    /// Human-readable section name (for `snapshot-info` and errors).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SnapSectionId::Prov => "prov",
            SnapSectionId::Strings => "strings",
            SnapSectionId::Names => "names",
            SnapSectionId::Reps => "reps",
            SnapSectionId::Sets => "sets",
            SnapSectionId::Stats => "stats",
        }
    }

    /// Decodes a section id, if known.
    #[must_use]
    pub fn from_u32(v: u32) -> Option<SnapSectionId> {
        SnapSectionId::ALL.into_iter().find(|&id| id as u32 == v)
    }
}

/// Error type for snapshot decoding: the container's taxonomy plus
/// [`SnapError::Provenance`] — a structurally valid snapshot of the *wrong
/// inputs* is not corruption, it is a cache miss that the caller answers
/// with a full re-solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The bytes are not a well-formed, undamaged snapshot.
    Container(ContainerError),
    /// The file could not be read or written.
    Io(String),
    /// Valid snapshot, wrong provenance (stale inputs or options).
    Provenance(String),
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Container(e) => e.fmt_for(FORMAT.kind, f),
            SnapError::Io(m) => write!(f, "snapshot i/o error: {m}"),
            SnapError::Provenance(m) => write!(f, "snapshot provenance mismatch: {m}"),
        }
    }
}

impl std::error::Error for SnapError {}

impl From<ContainerError> for SnapError {
    fn from(e: ContainerError) -> Self {
        SnapError::Container(e)
    }
}

impl From<std::io::Error> for SnapError {
    fn from(e: std::io::Error) -> Self {
        SnapError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn magic_spells_clas() {
        assert_eq!(&MAGIC.to_le_bytes(), b"CLAS");
    }

    #[test]
    fn section_ids_round_trip() {
        for id in SnapSectionId::ALL {
            assert_eq!(SnapSectionId::from_u32(id as u32), Some(id));
        }
        assert_eq!(SnapSectionId::from_u32(0), None);
        assert_eq!(SnapSectionId::from_u32(7), None);
    }

    #[test]
    fn errors_display_their_kind() {
        let bad_version = SnapError::from(ContainerError::BadVersion(9));
        assert_eq!(bad_version.to_string(), "unsupported snapshot version 9");
        assert!(SnapError::Provenance("x".into())
            .to_string()
            .contains("provenance"));
    }
}
