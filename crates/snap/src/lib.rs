//! # cla-snap — persistent analysis snapshots and the build cache
//!
//! The paper's thesis is a *database-centric* analysis architecture; this
//! crate extends the database idea from primitive assignments (the `.clao`
//! object format) to *analysis results*, so the most expensive artifact —
//! the solved pre-transitive graph — survives process exit:
//!
//! - **Snapshots** ([`Snapshot`], [`save`], [`SnapshotStore`]): a
//!   sectioned, checksummed, demand-loadable `.clasnap` file holding a
//!   provenance record, a [`cla_core::SealedGraph`]'s flattened
//!   representative table, its Arc-shared points-to sets (each distinct set
//!   encoded once) and the solve's stats — the graph and nothing else. Names
//!   stay in the linked database every loader already holds. Loading
//!   validates provenance and rebuilds a query-ready graph without running
//!   the solver — an instant warm start. Beside the graph the
//!   store keeps the linked program a batch run built, so the next run
//!   over the same inputs opens it instead of linking.
//! - **Build cache** ([`DiskCache`]): a content-addressed on-disk cache of
//!   compiled object files keyed by the hash of each file's preprocessed
//!   closure, with a size-capped LRU eviction sweep.
//!
//! Both plug into [`cla_core::pipeline::analyze_with`] through the
//! [`CompileCache`](cla_core::pipeline::CompileCache) and
//! [`SnapshotHook`](cla_core::pipeline::SnapshotHook) traits, and both are
//! covered by the deterministic fault-injection battery in [`fault`].
//!
//! ```
//! use cla_core::pipeline::{analyze_with, AnalyzeHooks, PipelineOptions};
//! use cla_snap::{DiskCache, SnapshotStore};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dir = std::env::temp_dir().join(format!("cla-snap-doc-{}", std::process::id()));
//! let mut fs = cla_cfront::MemoryFs::new();
//! fs.add("a.c", "int x, *p; void f(void) { p = &x; }");
//! let cache = DiskCache::open(&dir.join("cache"))?;
//! let store = SnapshotStore::open(&dir)?;
//! let hooks = AnalyzeHooks { compile_cache: Some(&cache), snapshots: Some(&store) };
//! let opts = PipelineOptions::default();
//! let cold = analyze_with(&fs, &["a.c"], &opts, &hooks)?;
//! assert!(!cold.report.snapshot_loaded);
//! let warm = analyze_with(&fs, &["a.c"], &opts, &hooks)?;
//! assert!(warm.report.snapshot_loaded); // solver skipped entirely
//! assert_eq!(warm.report.compile_cache_hits, 1);
//! # std::fs::remove_dir_all(&dir)?;
//! # Ok(())
//! # }
//! ```

mod cache;
pub mod fault;
mod format;
mod reader;
mod store;
mod writer;

pub use cache::{DiskCache, DEFAULT_MAX_BYTES};
pub use format::{SnapError, SnapSectionId, FORMAT, MAGIC, VERSION};
pub use reader::Snapshot;
pub use store::{SnapshotStore, SNAPSHOT_FILE};
pub use writer::{encode, encode_snapshot, save, save_snapshot};

#[cfg(test)]
mod tests {
    use super::*;
    use cla_core::pipeline::{Provenance, SnapshotHook};
    use cla_core::{SolveOptions, Warm};
    use cla_ir::{compile_source, LowerOptions, ObjId};
    use std::sync::Arc;

    fn sample_sealed() -> cla_core::SealedGraph {
        let unit = compile_source(
            "int shared, *p, *q, **pp; void f(void) { p = &shared; q = p; pp = &p; }",
            "a.c",
            &LowerOptions::default(),
        )
        .unwrap();
        Warm::from_unit(&unit, SolveOptions::default()).seal()
    }

    fn sample_prov() -> Provenance {
        Provenance {
            inputs: vec![("a.c".into(), 0xdead_beef)],
            options_fp: 42,
            solver: SolveOptions::default(),
        }
    }

    #[test]
    fn round_trip_is_exact() {
        let sealed = sample_sealed();
        let prov = sample_prov();
        let snap = Snapshot::from_bytes(encode(&prov, &sealed)).unwrap();
        assert_eq!(snap.provenance(), &prov);
        assert_eq!(snap.object_count(), sealed.object_count());
        let ids: Vec<u32> = snap.section_table().iter().map(|e| e.id).collect();
        assert_eq!(ids, SnapSectionId::ALL.map(|id| id as u32));
        let loaded = snap.load_sealed().unwrap();
        assert_eq!(loaded.stats(), sealed.stats());
        for i in 0..sealed.object_count() as u32 {
            assert_eq!(loaded.points_to(ObjId(i)), sealed.points_to(ObjId(i)));
            for j in 0..sealed.object_count() as u32 {
                assert_eq!(
                    loaded.may_alias(ObjId(i), ObjId(j)),
                    sealed.may_alias(ObjId(i), ObjId(j))
                );
            }
        }
    }

    #[test]
    fn sharing_survives_the_round_trip() {
        let sealed = sample_sealed();
        let bytes = encode(&sample_prov(), &sealed);
        let loaded = Snapshot::from_bytes(bytes).unwrap().load_sealed().unwrap();
        // p and q point at the same set; sharing must come back as one
        // allocation (the may_alias ptr::eq fast path depends on it).
        for i in 0..sealed.object_count() {
            for j in i + 1..sealed.object_count() {
                let (a, b) = (&sealed.sets()[i], &sealed.sets()[j]);
                let (la, lb) = (&loaded.sets()[i], &loaded.sets()[j]);
                if !a.is_empty() {
                    assert_eq!(Arc::ptr_eq(a, b), Arc::ptr_eq(la, lb), "objects {i},{j}");
                }
            }
        }
    }

    #[test]
    fn deterministic_encoding() {
        let sealed = sample_sealed();
        let prov = sample_prov();
        let bytes = encode(&prov, &sealed);
        assert_eq!(bytes, encode(&prov, &sealed));
        // The file `save` writes is those bytes, and the size it returns is
        // their length. The pre-v3 adapters, names and all, write the same.
        let path =
            std::env::temp_dir().join(format!("cla-snap-det-{}.clasnap", std::process::id()));
        let size = save(&path, &prov, &sealed).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        assert_eq!(size, bytes.len());
        assert_eq!(encode_snapshot(&prov, &sealed, &["ignored"]), bytes);
        std::fs::remove_file(&path).unwrap();
        assert_eq!(
            save_snapshot(&path, &prov, &sealed, &["ignored"]).unwrap(),
            size
        );
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn store_misses_on_provenance_mismatch() {
        let dir = std::env::temp_dir().join(format!("cla-snap-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SnapshotStore::open(&dir).unwrap();
        let sealed = sample_sealed();
        let prov = sample_prov();
        store.save(&prov, &sealed);
        assert!(store.load(&prov).is_some());
        let mut stale = prov.clone();
        stale.inputs[0].1 ^= 1; // one edited input file
        assert!(store.load(&stale).is_none());
        let mut other_solver = prov.clone();
        other_solver.solver.cycle_elim = !other_solver.solver.cycle_elim;
        assert!(store.load(&other_solver).is_none());
        let (_, _, mismatches) = store.counters();
        assert_eq!(mismatches, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A lookup under another provenance reads the provenance and nothing
    /// after it: with the `sets` bytes garbage it is one counted miss and
    /// no load. Under the file's own provenance the garbage is read, and is
    /// a counted miss, not a panic.
    #[test]
    fn store_reads_the_graph_only_under_its_provenance() {
        let dir = std::env::temp_dir().join(format!("cla-snap-head-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SnapshotStore::open(&dir).unwrap();
        let prov = sample_prov();
        let mut bytes = encode(&prov, &sample_sealed());
        let table = Snapshot::from_bytes(bytes.clone())
            .unwrap()
            .section_table()
            .to_vec();
        let sets = table
            .iter()
            .find(|e| e.id == SnapSectionId::Sets as u32)
            .unwrap();
        bytes[sets.offset as usize..(sets.offset + sets.len) as usize].fill(0xa5);
        std::fs::write(store.snapshot_path(), &bytes).unwrap();

        let head = Snapshot::open_head(&store.snapshot_path()).unwrap();
        assert_eq!(head.provenance(), &prov);
        assert_eq!(head.section_table(), table);
        assert!(head.load_sealed().is_err(), "the head holds a graph");
        let mut other = prov.clone();
        other.inputs[0].1 ^= 1;
        assert!(store.load(&other).is_none());
        assert_eq!(store.counters(), (0, 0, 1));
        assert!(store.load(&prov).is_none());
        assert_eq!(store.counters(), (0, 0, 2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_file_is_rejected_with_typed_error() {
        let bytes = encode(&sample_prov(), &sample_sealed());
        for cut in [0, 3, 19, bytes.len() / 2, bytes.len() - 1] {
            let err = match Snapshot::from_bytes(bytes[..cut].to_vec()) {
                Err(e) => e,
                Ok(snap) => snap
                    .load_sealed()
                    .expect_err("truncated snapshot decoded fully"),
            };
            // Any typed variant is acceptable; panics/wrong data are not.
            let _ = err.to_string();
        }
    }

    #[test]
    fn object_files_are_not_snapshots() {
        let unit = compile_source("int x;", "a.c", &LowerOptions::default()).unwrap();
        let obj = cla_cladb::write_object(&unit);
        assert!(matches!(
            Snapshot::from_bytes(obj),
            Err(SnapError::Container(cla_cladb::ContainerError::BadMagic))
        ));
    }
}
