//! Content-addressed build cache, in two levels: source file → manifest,
//! and closure key → object file.
//!
//! A compile whose closure — every source read, every include candidate
//! found missing — is unchanged is skipped entirely, across restarts.
//! Objects are ordinary `.clao` files named by their 16-hex-digit closure
//! key, written crash-safely, and re-validated by the pipeline on every hit
//! (`UnitObject::verify`: every section and block checksum) — a damaged
//! entry is a miss that gets recompiled and overwritten, never an error,
//! and is counted as one ([`CompileCache::reject`]).
//!
//! Manifests (`manifests/*.clam`, named by the hash of options and file
//! name) hold the closure a file's object was built from, so a warm build
//! finds the key by hashing the recorded sources instead of preprocessing
//! (DESIGN.md §11). They are checksummed containers too: a damaged one is
//! counted (`cla_snap_cache_manifest_corrupt_total`) and the file is keyed
//! by preprocessing, which rewrites it. Reading a manifest is neither a hit
//! nor a miss in [`DiskCache::counters`].
//!
//! Eviction is a size-capped LRU sweep over objects and manifests alike:
//! when the directory grows past the configured cap, oldest-modified
//! entries are removed until it fits. Object hits refresh an entry's
//! modified time (`File::set_modified`, best effort) so recency tracking
//! survives without any sidecar metadata. Manifest reads do not: under
//! pressure the manifests, which one preprocess rebuilds, go before the
//! objects, which take a compile.

use cla_core::pipeline::CompileCache;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Default size cap: plenty for every workload profile in this repo while
/// staying trivial to blow away.
pub const DEFAULT_MAX_BYTES: u64 = 256 * 1024 * 1024;

/// The subdirectory manifests live in, apart from the objects.
const MANIFESTS: &str = "manifests";

/// An open cache directory.
#[derive(Debug)]
pub struct DiskCache {
    dir: PathBuf,
    max_bytes: u64,
    /// Running estimate of the directory's payload size; a sweep resets it
    /// to the measured total.
    approx_bytes: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Entries that were read but failed the pipeline's verification.
    corrupt: AtomicU64,
    /// Stale temporaries reclaimed when the cache was opened.
    reclaimed: usize,
}

impl DiskCache {
    /// Opens (creating if needed) a cache directory with the default size
    /// cap. Stale `*.tmp` files from a crashed writer are swept first.
    ///
    /// # Errors
    ///
    /// Directory creation or listing failure.
    pub fn open(dir: &Path) -> std::io::Result<DiskCache> {
        DiskCache::with_capacity(dir, DEFAULT_MAX_BYTES)
    }

    /// [`DiskCache::open`] with an explicit size cap in bytes.
    ///
    /// # Errors
    ///
    /// Directory creation or listing failure.
    pub fn with_capacity(dir: &Path, max_bytes: u64) -> std::io::Result<DiskCache> {
        std::fs::create_dir_all(dir.join(MANIFESTS))?;
        let reclaimed =
            cla_cladb::sweep_stale_tmp(dir)? + cla_cladb::sweep_stale_tmp(&dir.join(MANIFESTS))?;
        let cache = DiskCache {
            dir: dir.to_path_buf(),
            max_bytes,
            approx_bytes: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            reclaimed,
        };
        let total = cache.sweep()?;
        cache.approx_bytes.store(total, Ordering::Relaxed);
        Ok(cache)
    }

    fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.clao"))
    }

    fn manifest_path(&self, key: u64) -> PathBuf {
        self.dir.join(MANIFESTS).join(format!("{key:016x}.clam"))
    }

    /// Adds `len` freshly stored bytes to the running size, sweeping when
    /// it passes the cap.
    fn grew(&self, len: usize) {
        let total = self.approx_bytes.fetch_add(len as u64, Ordering::Relaxed) + len as u64;
        if total > self.max_bytes {
            let _ = self.sweep();
        }
    }

    /// Stale temporaries removed at open.
    #[must_use]
    pub fn reclaimed_tmp(&self) -> usize {
        self.reclaimed
    }

    /// (hits, misses) so far for this handle. A damaged entry is a miss: it
    /// counts as a hit while the pipeline verifies it and moves over when
    /// it is [rejected](CompileCache::reject).
    #[must_use]
    pub fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Entries found damaged so far for this handle (each also a miss).
    #[must_use]
    pub fn corrupt(&self) -> u64 {
        self.corrupt.load(Ordering::Relaxed)
    }

    /// Enforces the size cap: lists entries (objects and manifests), and
    /// while the total exceeds the cap removes the least-recently-modified
    /// ones. Returns the total
    /// payload bytes remaining. Bumps `cla_snap_cache_evictions_total` per
    /// removed entry.
    ///
    /// # Errors
    ///
    /// Directory listing failure (individual removals are best effort).
    pub fn sweep(&self) -> std::io::Result<u64> {
        let mut entries: Vec<(std::time::SystemTime, u64, PathBuf)> = Vec::new();
        for (dir, ext) in [
            (self.dir.clone(), "clao"),
            (self.dir.join(MANIFESTS), "clam"),
        ] {
            let listing = match std::fs::read_dir(dir) {
                Ok(listing) => listing,
                // Manifests are rebuilt by the next preprocess of each file.
                Err(_) if ext == "clam" => continue,
                Err(e) => return Err(e),
            };
            for entry in listing {
                let Ok(entry) = entry else { continue };
                let path = entry.path();
                if path.extension().is_none_or(|e| e != ext) {
                    continue;
                }
                let Ok(meta) = entry.metadata() else { continue };
                let modified = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
                entries.push((modified, meta.len(), path));
            }
        }
        let mut total: u64 = entries.iter().map(|(_, len, _)| len).sum();
        if total > self.max_bytes {
            entries.sort_by_key(|(modified, _, _)| *modified);
            let evictions = cla_obs::global().counter("cla_snap_cache_evictions_total");
            for (_, len, path) in &entries {
                if total <= self.max_bytes {
                    break;
                }
                if std::fs::remove_file(path).is_ok() {
                    total -= len;
                    evictions.inc();
                }
            }
        }
        self.approx_bytes.store(total, Ordering::Relaxed);
        Ok(total)
    }
}

impl CompileCache for DiskCache {
    fn load(&self, key: u64) -> Option<Vec<u8>> {
        let path = self.entry_path(key);
        match std::fs::read(&path) {
            Ok(bytes) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                cla_obs::global().counter("cla_snap_cache_hits_total").inc();
                // Refresh recency for the LRU sweep; best effort.
                if let Ok(f) = std::fs::File::options().append(true).open(&path) {
                    let _ = f.set_modified(std::time::SystemTime::now());
                }
                Some(bytes)
            }
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                cla_obs::global()
                    .counter("cla_snap_cache_misses_total")
                    .inc();
                None
            }
        }
    }

    fn reject(&self, _key: u64) {
        // `load` could only count the read as a hit. The process-wide
        // counters only go up, so there a damaged entry stays in
        // `cla_snap_cache_hits_total` and shows in the two below: accepted
        // hits are `hits - corrupt`.
        self.hits.fetch_sub(1, Ordering::Relaxed);
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.corrupt.fetch_add(1, Ordering::Relaxed);
        let obs = cla_obs::global();
        obs.counter("cla_snap_cache_corrupt_total").inc();
        obs.counter("cla_snap_cache_misses_total").inc();
    }

    fn store(&self, key: u64, bytes: &[u8]) {
        // Best effort by contract: a failed store only costs a recompile.
        if cla_cladb::atomic_write_bytes(&self.entry_path(key), bytes).is_ok() {
            self.grew(bytes.len());
        }
    }

    fn load_manifest(&self, key: u64) -> Option<Vec<u8>> {
        std::fs::read(self.manifest_path(key)).ok()
    }

    fn store_manifest(&self, key: u64, bytes: &[u8]) {
        if cla_cladb::atomic_write_bytes(&self.manifest_path(key), bytes).is_ok() {
            self.grew(bytes.len());
        }
    }

    fn reject_manifest(&self, _key: u64) {
        cla_obs::global()
            .counter("cla_snap_cache_manifest_corrupt_total")
            .inc();
    }
}
