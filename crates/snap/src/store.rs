//! On-disk snapshot store: one snapshot per directory, matched by
//! provenance. This is the [`SnapshotHook`] implementation the pipeline and
//! the serve layer plug in — load succeeds only when the stored provenance
//! equals the requested one, so an edited source file (headers included),
//! a changed preprocessor define, or a flipped solver option can never
//! yield stale answers; it simply misses and the caller re-solves.
//!
//! Beside the graph the store keeps one linked program,
//! `program-<key>.clao`, named by [`program_key`] of the provenance it was
//! linked from. The pipeline admits it as any `.clao` read from disk, so
//! the store only reads and writes bytes.

use crate::reader::Snapshot;
use crate::writer::save_snapshot;
use cla_core::pipeline::{program_key, Provenance, SnapshotHook};
use cla_core::SealedGraph;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// File name of the store's single snapshot.
pub const SNAPSHOT_FILE: &str = "graph.clasnap";

/// Name prefix and extension of the store's linked program.
const PROGRAM_PREFIX: &str = "program-";
const PROGRAM_EXT: &str = "clao";

/// A directory holding (at most) one analysis snapshot and one linked
/// program.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
    loads: AtomicU64,
    saves: AtomicU64,
    mismatches: AtomicU64,
    /// Stale temporaries reclaimed when the store was opened.
    reclaimed: usize,
}

impl SnapshotStore {
    /// Opens (creating if needed) a snapshot directory. Stale `*.tmp`
    /// files left by a crash mid-save are swept here, before any writer
    /// can collide with them.
    ///
    /// # Errors
    ///
    /// Directory creation or listing failure.
    pub fn open(dir: &Path) -> std::io::Result<SnapshotStore> {
        std::fs::create_dir_all(dir)?;
        let reclaimed = cla_cladb::sweep_stale_tmp(dir)?;
        Ok(SnapshotStore {
            dir: dir.to_path_buf(),
            loads: AtomicU64::new(0),
            saves: AtomicU64::new(0),
            mismatches: AtomicU64::new(0),
            reclaimed,
        })
    }

    /// Path of the snapshot file (whether or not it exists yet).
    #[must_use]
    pub fn snapshot_path(&self) -> PathBuf {
        self.dir.join(SNAPSHOT_FILE)
    }

    /// Path of the linked program stored for `prov` (whether or not it
    /// exists).
    fn program_path(&self, prov: &Provenance) -> PathBuf {
        self.dir.join(format!(
            "{PROGRAM_PREFIX}{:016x}.{PROGRAM_EXT}",
            program_key(prov)
        ))
    }

    /// Every stored program file: at most one, unless a writer was cut
    /// short between its save and its sweep.
    #[must_use]
    pub fn program_files(&self) -> Vec<PathBuf> {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut found: Vec<PathBuf> = (entries.flatten())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with(PROGRAM_PREFIX))
                    && p.extension().is_some_and(|x| x == PROGRAM_EXT)
            })
            .collect();
        found.sort();
        found
    }

    /// Stale temporaries removed at open.
    #[must_use]
    pub fn reclaimed_tmp(&self) -> usize {
        self.reclaimed
    }

    /// (successful loads, saves, provenance/decode mismatches) so far.
    #[must_use]
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.loads.load(Ordering::Relaxed),
            self.saves.load(Ordering::Relaxed),
            self.mismatches.load(Ordering::Relaxed),
        )
    }

    /// The stored snapshot's provenance, if a readable snapshot exists.
    #[must_use]
    pub fn stored_provenance(&self) -> Option<Provenance> {
        Snapshot::open(&self.snapshot_path())
            .ok()
            .map(|s| s.provenance().clone())
    }
}

impl SnapshotHook for SnapshotStore {
    fn load(&self, prov: &Provenance) -> Option<SealedGraph> {
        let path = self.snapshot_path();
        if !path.exists() {
            return None;
        }
        let snap = match Snapshot::open(&path) {
            Ok(s) => s,
            Err(_) => {
                // Unreadable or corrupt is a miss, not an error: the
                // caller re-solves and overwrites the bad file.
                self.mismatches.fetch_add(1, Ordering::Relaxed);
                cla_obs::global().counter("cla_snap_mismatch_total").inc();
                return None;
            }
        };
        if snap.provenance() != prov {
            self.mismatches.fetch_add(1, Ordering::Relaxed);
            cla_obs::global().counter("cla_snap_mismatch_total").inc();
            return None;
        }
        match snap.load_sealed() {
            Ok(sealed) => {
                self.loads.fetch_add(1, Ordering::Relaxed);
                Some(sealed)
            }
            Err(_) => {
                self.mismatches.fetch_add(1, Ordering::Relaxed);
                cla_obs::global().counter("cla_snap_mismatch_total").inc();
                None
            }
        }
    }

    fn save(&self, prov: &Provenance, sealed: &SealedGraph, names: &[&str]) {
        // Best effort by contract: a failed save costs a cold start later,
        // nothing else.
        if save_snapshot(&self.snapshot_path(), prov, sealed, names).is_ok() {
            self.saves.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn load_program(&self, prov: &Provenance) -> Option<Vec<u8>> {
        std::fs::read(self.program_path(prov)).ok()
    }

    fn save_program(&self, prov: &Provenance, bytes: &[u8]) {
        let path = self.program_path(prov);
        if cla_cladb::atomic_write_bytes(&path, bytes).is_err() {
            return;
        }
        cla_obs::global()
            .counter("cla_snap_program_saves_total")
            .inc();
        // One program, as one graph: any other was linked from inputs that
        // are gone.
        for stale in self.program_files().into_iter().filter(|p| *p != path) {
            let _ = std::fs::remove_file(stale);
        }
    }
}
