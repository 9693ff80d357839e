//! # cla-cladb — the compile-link-analyze object-file database
//!
//! The architectural contribution of the paper: program facts (primitive
//! assignments, function signatures, symbol tables) live in a compact,
//! heavily indexed, sectioned object file. The *compile* phase (`cla-ir`)
//! produces one database per source file; the link phase merges them into
//! a program database with global symbols unified. One linker does that:
//! the [`ObjectLinker`] folds the encoded objects ([`UnitObject`]) as they
//! are, and the unit-level [`link`] encodes the units it is handed and
//! folds them with it; [`Database`] serves the
//! *analyze* phase with demand loading — only the blocks an analysis touches
//! are ever decoded, and a decoded block may be discarded and re-read later
//! (load-and-throw-away), keeping the in-core footprint small.
//!
//! The format has one of everything. `container` owns the file layout,
//! `record` each fixed-size record (size, fields, codec, enum bytes),
//! `writer::write_sections` writes the nine section bodies for the unit
//! writer and the linker alike, and `unit`'s borrowed `UnitView` is the one
//! reader that cuts and judges them: the linker folds it and [`Database`]
//! is built from it. Bytes are admitted three ways, by that one checker:
//! [`Database::open`] (sections and ids outside the blob now, each block on
//! its first fetch, [`Database::verify_all`] for the rest),
//! [`UnitObject::verify`] (everything up front) and
//! [`Database::from_object`] (nothing again: a [`UnitObject`] is intact by
//! construction).
//!
//! ```
//! use cla_ir::{compile_source, LowerOptions};
//! use cla_cladb::{write_object, Database, link};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let a = compile_source("int shared; int *p; void f(void) { p = &shared; }", "a.c",
//!                        &LowerOptions::default())?;
//! let b = compile_source("extern int shared; int q; void g(void) { q = shared; }", "b.c",
//!                        &LowerOptions::default())?;
//! let (program, _) = link(&[a, b], "prog");
//! let db = Database::open(write_object(&program))?;
//! assert_eq!(db.static_assigns()?.len(), 1);
//! # Ok(())
//! # }
//! ```

pub mod container;
mod dump;
pub mod fault;
mod format;
mod linker;
mod names;
mod objlink;
mod reader;
mod record;
pub mod transform;
mod unit;
mod writer;

pub use container::{
    bytes_checksummed, fnv64, xxh64, ContainerError, HEADER_FIXED_SIZE, SECTION_ENTRY_SIZE,
};
pub use dump::{census, dump, is_static_assign};
pub use format::{DbError, SectionId, FORMAT, MAGIC, NONE_U32, VERSION};
pub use linker::{link, Linker};
pub use objlink::{LinkStats, LinkTimes, LinkedObject, ObjectLinker, StreamLinker};
pub use reader::{Database, LoadStats, ObjectRef};
pub use record::ASSIGN_RECORD_SIZE;
pub use unit::UnitObject;
pub use writer::{atomic_write_bytes, block_key, sweep_stale_tmp, write_object, write_object_file};

#[cfg(test)]
mod tests {
    use super::*;
    use cla_ir::{compile_source, LowerOptions};

    #[test]
    fn compile_link_analyze_pipeline() {
        let sources = [
            ("a.c", "int shared, *p; void fa(void) { p = &shared; }"),
            (
                "b.c",
                "extern int shared; extern int *p; int *q; void fb(void) { q = p; }",
            ),
            ("c.c", "extern int *q; int r; void fc(void) { r = *q; }"),
        ];
        let units: Vec<_> = sources
            .iter()
            .map(|(n, s)| compile_source(s, n, &LowerOptions::default()).unwrap())
            .collect();
        let (program, stats) = link(&units, "prog");
        assert_eq!(stats.units, 3);
        let db = Database::open(write_object(&program)).unwrap();
        // One shared object, one p, one q.
        assert_eq!(program.find_objects("shared").count(), 1);
        assert_eq!(program.find_objects("p").count(), 1);
        // Static section: p = &shared.
        let statics = db.static_assigns().unwrap();
        assert_eq!(statics.len(), 1);
        // The executable has the same format as object files: re-open works.
        let rewritten = write_object(&db.to_unit().unwrap());
        assert!(Database::open(rewritten).is_ok());
    }

    #[test]
    fn object_file_is_compact() {
        // The database should cost a bounded number of bytes per assignment
        // (the paper's object files are a few MB for hundreds of thousands
        // of assignments).
        let src = r"
            int a0, a1, a2, a3, a4, a5, a6, a7, a8, a9;
            void f(void) {
                a0 = a1; a1 = a2; a2 = a3; a3 = a4; a4 = a5;
                a5 = a6; a6 = a7; a7 = a8; a8 = a9; a9 = a0;
            }
        ";
        let unit = compile_source(src, "a.c", &LowerOptions::default()).unwrap();
        let bytes = write_object(&unit);
        let per_assign = bytes.len() / unit.assigns.len();
        assert!(per_assign < 200, "bytes per assignment: {per_assign}");
    }
}
