//! Persistence integration tests: snapshot round trips must be
//! observationally exact (identical points-to answers, stats, and sharing
//! behavior), provenance mismatches must force a full re-solve, the
//! compile cache must survive corruption by falling back to the compiler,
//! and stale temporaries from crashed writers must be reclaimed on open.

use cla::core::pipeline::CompileCache as _;
use cla::prelude::*;
use std::path::{Path, PathBuf};

/// A test directory that cleans up after itself even on panic.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("cla-snap-it-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Generated multi-file workload sources in a `MemoryFs`.
fn workload_fs(spec_name: &str, scale: f64, seed: u64) -> (MemoryFs, Vec<String>) {
    let spec = by_name(spec_name).unwrap();
    let w = generate(
        spec,
        &GenOptions {
            scale,
            files: 3,
            seed,
            ..Default::default()
        },
    );
    let mut fs = MemoryFs::new();
    for (p, c) in &w.files {
        fs.add(p.clone(), c.clone());
    }
    let names: Vec<String> = w.source_files().iter().map(|s| s.to_string()).collect();
    (fs, names)
}

fn analyze_snapshotted(fs: &MemoryFs, names: &[String], dir: &Path) -> (Analysis, (u64, u64, u64)) {
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let cache = DiskCache::open(&dir.join("cache")).unwrap();
    let store = SnapshotStore::open(dir).unwrap();
    let hooks = AnalyzeHooks {
        compile_cache: Some(&cache),
        snapshots: Some(&store),
    };
    let analysis = analyze_with(fs, &refs, &PipelineOptions::default(), &hooks).unwrap();
    let counters = store.counters();
    (analysis, counters)
}

/// A three-variable copy cycle: after the solve `a`, `b` and `c` are one
/// SCC and must share one set allocation.
fn cycle_fs() -> (MemoryFs, Vec<String>) {
    let mut fs = MemoryFs::new();
    fs.add(
        "cycle.c",
        "int v, w, *a, *b, *c; void f(void) { a = b; b = c; c = a; a = &v; c = &w; }",
    );
    (fs, vec!["cycle.c".to_string()])
}

/// For each object with a non-empty set, the first object holding the same
/// allocation: the graph's sharing structure, independent of addresses.
fn sharing(graph: &cla::core::SealedGraph) -> Vec<Option<usize>> {
    let sets = graph.sets();
    sets.iter()
        .map(|s| {
            (!s.is_empty()).then(|| {
                sets.iter()
                    .position(|t| std::sync::Arc::ptr_eq(s, t))
                    .expect("a set shares with itself")
            })
        })
        .collect()
}

#[test]
fn workload_round_trip_is_observationally_exact() {
    for spec in ["nethack", "vortex", "cycle"] {
        let dir = TempDir::new(&format!("roundtrip-{spec}"));
        let (fs, names) = if spec == "cycle" {
            cycle_fs()
        } else {
            workload_fs(spec, 0.05, 11)
        };

        let (cold, _) = analyze_snapshotted(&fs, &names, dir.path());
        assert!(!cold.report.snapshot_loaded, "{spec}: first run must solve");
        assert_eq!(cold.report.compile_cache_hits, 0, "{spec}");

        let (warm, (loads, _, mismatches)) = analyze_snapshotted(&fs, &names, dir.path());
        assert!(warm.report.snapshot_loaded, "{spec}: second run must load");
        assert_eq!(loads, 1, "{spec}");
        assert_eq!(mismatches, 0, "{spec}");
        assert_eq!(
            warm.report.compile_cache_hits,
            names.len(),
            "{spec}: every file must come from the cache"
        );

        // Observational exactness: the restored graph answers every query
        // exactly like the freshly solved one, and the persisted solver
        // stats match what the solve produced.
        assert_eq!(cold.points_to, warm.points_to, "{spec}: points-to differs");
        assert_eq!(
            cold.report.solve_stats, warm.report.solve_stats,
            "{spec}: solver stats not persisted faithfully"
        );

        // One relation, copied by nobody: the loaded graph shares exactly
        // what a fresh seal shares, and the relation extracted from it is
        // the loaded graph's own allocations, not copies of them.
        let db = &cold.database;
        let store = SnapshotStore::open(dir.path()).unwrap();
        let loaded = Snapshot::open(&store.snapshot_path())
            .and_then(|s| s.load_sealed())
            .unwrap();
        let fresh = cla::core::Warm::from_database(db, SolveOptions::default()).seal();
        assert_eq!(sharing(&loaded), sharing(&fresh), "{spec}: sharing lost");
        let extracted = loaded.extract_points_to(db.objects());
        assert_eq!(extracted, cold.points_to, "{spec}");
        for (o, set) in loaded.sets().iter().enumerate() {
            assert!(
                set.is_empty() || std::ptr::eq(extracted.points_to(ObjId(o as u32)), &set[..]),
                "{spec}: object {o}'s set was copied on the way out of the snapshot"
            );
        }
        if spec == "cycle" {
            let [a, b, c] = ["a", "b", "c"].map(|n| db.targets(n)[0].index());
            let sets = loaded.sets();
            assert!(!sets[a].is_empty());
            assert!(
                std::sync::Arc::ptr_eq(&sets[a], &sets[b])
                    && std::sync::Arc::ptr_eq(&sets[b], &sets[c]),
                "SCC members came back from the snapshot as separate allocations"
            );
        }
    }
}

#[test]
fn a_snapshot_with_an_unknown_extra_section_loads_unchanged() {
    // Paper §4: "new sections can be transparently added". The object
    // format's case is `crates/cladb/tests/format_compat.rs`; this is the
    // same helper over the container's other instantiation.
    let dir = TempDir::new("extra-section");
    let (fs, names) = workload_fs("nethack", 0.05, 11);
    analyze_snapshotted(&fs, &names, dir.path());
    let path = SnapshotStore::open(dir.path()).unwrap().snapshot_path();
    let orig = std::fs::read(&path).unwrap();
    let extended = cla::cladb::fault::with_extra_section(
        &orig,
        &cla::snap::FORMAT,
        999,
        b"future feature data",
    );
    assert!(extended.len() > orig.len());

    let old = Snapshot::from_bytes(orig).unwrap();
    let new = Snapshot::from_bytes(extended.clone()).expect("readers skip unknown sections");
    assert_eq!(new.section_table().len(), old.section_table().len() + 1);
    assert_eq!(new.provenance(), old.provenance());
    assert_eq!(new.names().unwrap(), old.names().unwrap());
    let (new_graph, old_graph) = (new.load_sealed().unwrap(), old.load_sealed().unwrap());
    assert_eq!(new_graph.sets(), old_graph.sets());
    assert_eq!(new_graph.stats(), old_graph.stats());

    // And through the store: the extended file is still a warm start.
    std::fs::write(&path, &extended).unwrap();
    let (warm, (loads, _, mismatches)) = analyze_snapshotted(&fs, &names, dir.path());
    assert!(warm.report.snapshot_loaded);
    assert_eq!((loads, mismatches), (1, 0));

    // A second section under a *known* id is not an extension but an
    // ambiguity, and is refused like in the object format.
    let twice = cla::cladb::fault::with_extra_section(
        &extended,
        &cla::snap::FORMAT,
        cla::snap::SnapSectionId::Sets as u32,
        b"",
    );
    match Snapshot::from_bytes(twice) {
        Err(cla::snap::SnapError::Container(cla::cladb::ContainerError::Corrupt(msg))) => {
            assert!(msg.contains("duplicate section id"), "{msg}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn provenance_mismatch_forces_a_full_resolve() {
    let dir = TempDir::new("provenance");
    let mut fs = MemoryFs::new();
    fs.add("a.c", "int x; int *p; void f(void) { p = &x; }");
    fs.add("b.c", "extern int *p; int *q; void g(void) { q = p; }");
    let names = vec!["a.c".to_string(), "b.c".to_string()];

    let (_, _) = analyze_snapshotted(&fs, &names, dir.path());

    // A semantically meaningful edit changes one input hash: the stored
    // snapshot must be ignored (mismatch counted) and the fresh solve must
    // see the new assignment.
    fs.add(
        "b.c",
        "extern int *p; int x2; int *q; void g(void) { q = p; q = &x2; }",
    );
    let (edited, (_, _, mismatches)) = analyze_snapshotted(&fs, &names, dir.path());
    assert!(!edited.report.snapshot_loaded, "stale snapshot was loaded");
    assert_eq!(mismatches, 1);
    let q = edited.database.targets("q")[0];
    let x2 = edited.database.targets("x2")[0];
    assert!(
        edited.points_to.may_point_to(q, x2),
        "re-solve missed the edit"
    );

    // The refreshed snapshot matches the edited program again.
    let (warm, (_, _, mismatches)) = analyze_snapshotted(&fs, &names, dir.path());
    assert!(warm.report.snapshot_loaded);
    assert_eq!(mismatches, 0);
    assert_eq!(edited.points_to, warm.points_to);
}

#[test]
fn different_solver_options_do_not_share_a_snapshot() {
    let dir = TempDir::new("solver-opts");
    let mut fs = MemoryFs::new();
    fs.add("a.c", "int x; int *p; void f(void) { p = &x; }");
    let refs = ["a.c"];

    let store = SnapshotStore::open(dir.path()).unwrap();
    let hooks = AnalyzeHooks {
        compile_cache: None,
        snapshots: Some(&store),
    };
    let opts = PipelineOptions::default();
    analyze_with(&fs, &refs, &opts, &hooks).unwrap();

    let ablated = PipelineOptions {
        solver: SolveOptions {
            cycle_elim: false,
            ..SolveOptions::default()
        },
        ..PipelineOptions::default()
    };
    let second = analyze_with(&fs, &refs, &ablated, &hooks).unwrap();
    assert!(
        !second.report.snapshot_loaded,
        "snapshot crossed a solver-options boundary"
    );
    let (_, _, mismatches) = store.counters();
    assert_eq!(mismatches, 1);
}

#[test]
fn serve_session_warm_starts_from_the_snapshot_directory() {
    let dir = TempDir::new("serve-warm");
    let src_a = dir.path().join("a.c");
    let src_b = dir.path().join("b.c");
    std::fs::write(
        &src_a,
        "int x; int *p; int **pp; void f(void) { p = &x; pp = &p; }",
    )
    .unwrap();
    std::fs::write(&src_b, "extern int *p; int *q; void g(void) { q = p; }").unwrap();
    let snap_dir = dir.path().join("snap");
    let files = [
        src_a.to_string_lossy().into_owned(),
        src_b.to_string_lossy().into_owned(),
    ];
    let refs: Vec<&str> = files.iter().map(String::as_str).collect();

    let build = |snap: Option<&Path>| {
        Session::from_files_jobs(
            &OsFs,
            &refs,
            &PpOptions::default(),
            &LowerOptions::default(),
            SolveOptions::default(),
            snap,
            1,
        )
        .unwrap()
    };

    let cold = build(Some(&snap_dir));
    assert!(!cold.snapshot_loaded(), "no snapshot existed yet");
    assert!(snap_dir.join(cla::snap::SNAPSHOT_FILE).exists());

    let warm = build(Some(&snap_dir));
    assert!(warm.snapshot_loaded(), "second session must start warm");
    for var in ["p", "q", "pp"] {
        let a = cold.points_to(var).unwrap();
        let b = warm.points_to(var).unwrap();
        let names = |ans: &cla::serve::PointsToAnswer| -> Vec<String> {
            ans.targets.iter().map(|t| t.name.clone()).collect()
        };
        assert_eq!(names(&a), names(&b), "pts({var}) differs across warm start");
    }
    let stats = warm.stats();
    assert!(stats.snapshot_loaded);
    assert_eq!(stats.snapshot_loads, 1);
    assert!(stats.snapshot_provenance.is_some());

    // An edit invalidates the snapshot: the next cold start re-solves and
    // sees the new flow, rather than serving stale warm-start answers.
    std::fs::write(
        &src_b,
        "extern int *p; int y2; int *q; void g(void) { q = &y2; }",
    )
    .unwrap();
    let edited = build(Some(&snap_dir));
    assert!(
        !edited.snapshot_loaded(),
        "stale snapshot reused after edit"
    );
    let pts_q = edited.points_to("q").unwrap();
    let target_names: Vec<&str> = pts_q.targets.iter().map(|t| t.name.as_str()).collect();
    assert_eq!(target_names, ["y2"]);
}

#[test]
fn corrupt_cache_entry_falls_back_to_the_compiler() {
    let dir = TempDir::new("corrupt-cache");
    let mut fs = MemoryFs::new();
    fs.add("a.c", "int x; int *p; void f(void) { p = &x; }");
    fs.add("b.c", "extern int *p; int *q; void g(void) { q = p; }");
    let names = vec!["a.c".to_string(), "b.c".to_string()];

    let (cold, _) = analyze_snapshotted(&fs, &names, dir.path());

    // Flip bytes inside every cached object: the checksummed reader must
    // reject them, and the pipeline must transparently recompile (a miss,
    // never an error) and overwrite the entries with good ones.
    let cache_dir = dir.path().join("cache");
    let mut corrupted = 0;
    for entry in std::fs::read_dir(&cache_dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "clao") {
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xff;
            bytes[mid + 1] ^= 0xff;
            std::fs::write(&path, bytes).unwrap();
            corrupted += 1;
        }
    }
    assert_eq!(corrupted, 2, "expected one cache entry per source file");

    let (recovered, _) = analyze_snapshotted(&fs, &names, dir.path());
    assert_eq!(
        recovered.report.compile_cache_hits, 0,
        "corrupt entries must not count as hits"
    );
    assert_eq!(recovered.report.compile_cache_misses, 2);
    assert_eq!(cold.points_to, recovered.points_to);

    // The recompile overwrote the damaged entries, so the next run hits.
    let (healed, _) = analyze_snapshotted(&fs, &names, dir.path());
    assert_eq!(healed.report.compile_cache_hits, 2);
}

#[test]
fn a_damaged_block_or_string_in_a_cache_entry_is_one_counted_miss() {
    // A cache hit reaches the linker undecoded, so everything `to_unit`
    // used to trip over while decoding must be caught before the hand-over:
    // above all a fault in a dynamic block, which `Database::open` alone
    // lets through (blocks are verified on first fetch).
    use cla::cladb::container::Header;
    use cla::cladb::{SectionId, FORMAT};
    let mut fs = MemoryFs::new();
    fs.add("a.c", "int x, y; int *p; void f(void) { p = &x; y = x; }");
    fs.add(
        "b.c",
        "extern int *p; int *q, **pp; void g(void) { q = p; *pp = q; }",
    );
    let refs = ["a.c", "b.c"];
    let corrupt_total = || {
        let text = cla::obs::global().prometheus_text();
        let samples = cla::obs::parse_exposition(&text).unwrap();
        (samples.iter())
            .find(|s| s.name == "cla_snap_cache_corrupt_total")
            .map_or(0.0, |s| s.value)
    };
    for section in [SectionId::Dynamic, SectionId::String] {
        let dir = TempDir::new(&format!("damaged-{section}"));
        let run = || {
            let cache = DiskCache::open(&dir.path().join("cache")).unwrap();
            let store = SnapshotStore::open(dir.path()).unwrap();
            let hooks = AnalyzeHooks {
                compile_cache: Some(&cache),
                snapshots: Some(&store),
            };
            let a = analyze_with(&fs, &refs, &PipelineOptions::default(), &hooks).unwrap();
            (a, cache.counters(), cache.corrupt())
        };
        let (cold, counters, _) = run();
        assert_eq!(counters, (0, 2));

        let mut entries: Vec<PathBuf> = std::fs::read_dir(dir.path().join("cache"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        entries.sort();
        let pristine = std::fs::read(&entries[0]).unwrap();
        let table = Header::read(&pristine, &FORMAT).unwrap().table;
        let entry = table.iter().find(|e| e.id == section as u32).unwrap();
        let at = match section {
            // The last byte of the section lies in the blob of blocks.
            SectionId::Dynamic => entry.offset + entry.len - 1,
            _ => entry.offset + entry.len / 2,
        } as usize;
        let mut damaged = pristine.clone();
        damaged[at] ^= 0x20;
        if section == SectionId::Dynamic {
            assert!(Database::open(damaged.clone()).is_ok());
        }
        std::fs::write(&entries[0], &damaged).unwrap();

        let before = corrupt_total();
        let (recovered, counters, corrupt) = run();
        assert_eq!(recovered.points_to, cold.points_to, "{section}");
        assert_eq!(
            (
                recovered.report.compile_cache_hits,
                recovered.report.compile_cache_misses
            ),
            (1, 1),
            "{section}"
        );
        assert_eq!((counters, corrupt), ((1, 1), 1), "{section}");
        assert!(corrupt_total() >= before + 1.0);
        assert_eq!(
            recovered.database.content_hash(),
            cold.database.content_hash()
        );
        // The recompile overwrote the damaged entry.
        assert_eq!(std::fs::read(&entries[0]).unwrap(), pristine);
        let (healed, counters, corrupt) = run();
        assert_eq!(healed.report.compile_cache_hits, 2);
        assert_eq!((counters, corrupt), ((2, 0), 0));
    }
}

#[test]
fn corrupt_snapshot_file_falls_back_to_a_full_solve() {
    let dir = TempDir::new("corrupt-snap");
    let mut fs = MemoryFs::new();
    fs.add("a.c", "int x; int *p; void f(void) { p = &x; }");
    let names = vec!["a.c".to_string()];

    let (cold, _) = analyze_snapshotted(&fs, &names, dir.path());
    let snap_path = dir.path().join(cla::snap::SNAPSHOT_FILE);
    let mut bytes = std::fs::read(&snap_path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&snap_path, bytes).unwrap();

    let (recovered, (_, _, mismatches)) = analyze_snapshotted(&fs, &names, dir.path());
    assert!(!recovered.report.snapshot_loaded);
    assert_eq!(mismatches, 1, "corruption must count as a mismatch");
    assert_eq!(cold.points_to, recovered.points_to);
}

#[test]
fn stale_temporaries_are_reclaimed_on_open() {
    let dir = TempDir::new("tmp-sweep");
    // A crashed atomic writer leaves `.{name}.tmp.{pid}`; an interrupted
    // legacy writer leaves `{name}.tmp`. Both must be swept. Our own pid's
    // in-flight temporary must be left alone.
    std::fs::write(dir.path().join(".graph.clasnap.tmp.999999"), b"junk").unwrap();
    std::fs::write(dir.path().join("partial.tmp"), b"junk").unwrap();
    let own = format!(".live.tmp.{}", std::process::id());
    std::fs::write(dir.path().join(&own), b"in flight").unwrap();

    let store = SnapshotStore::open(dir.path()).unwrap();
    assert_eq!(store.reclaimed_tmp(), 2);
    assert!(!dir.path().join(".graph.clasnap.tmp.999999").exists());
    assert!(!dir.path().join("partial.tmp").exists());
    assert!(dir.path().join(&own).exists(), "live temporary was swept");

    // Same sweep guards the compile cache directory.
    let cache_dir = dir.path().join("cache");
    std::fs::create_dir_all(&cache_dir).unwrap();
    std::fs::write(cache_dir.join("0123456789abcdef.clao.tmp"), b"junk").unwrap();
    let cache = DiskCache::open(&cache_dir).unwrap();
    assert_eq!(cache.reclaimed_tmp(), 1);
}

#[test]
fn cache_evicts_oldest_entries_past_the_size_cap() {
    let dir = TempDir::new("lru");
    let payload = vec![0xABu8; 1000];
    let cache = DiskCache::with_capacity(dir.path(), 2500).unwrap();
    cache.store(1, &payload);
    cache.store(2, &payload);

    // Age the first two entries so recency ordering is unambiguous.
    for (key, secs) in [(1u64, 1000u64), (2, 2000)] {
        let path = dir.path().join(format!("{key:016x}.clao"));
        let f = std::fs::File::options().append(true).open(&path).unwrap();
        f.set_modified(std::time::UNIX_EPOCH + std::time::Duration::from_secs(secs))
            .unwrap();
    }

    // Third store pushes the total to 3000 > 2500: the oldest entry (key 1)
    // must go, the newer ones must survive.
    cache.store(3, &payload);
    assert!(!dir.path().join(format!("{:016x}.clao", 1)).exists());
    assert!(dir.path().join(format!("{:016x}.clao", 2)).exists());
    assert!(dir.path().join(format!("{:016x}.clao", 3)).exists());

    // A hit refreshes recency: touch key 2, then overflow again — key 3 is
    // now the oldest and must be the one evicted.
    assert!(cache.load(2).is_some());
    let f = std::fs::File::options()
        .append(true)
        .open(dir.path().join(format!("{:016x}.clao", 3)))
        .unwrap();
    f.set_modified(std::time::UNIX_EPOCH + std::time::Duration::from_secs(3000))
        .unwrap();
    cache.store(4, &payload);
    assert!(!dir.path().join(format!("{:016x}.clao", 3)).exists());
    assert!(dir.path().join(format!("{:016x}.clao", 2)).exists());
    assert!(dir.path().join(format!("{:016x}.clao", 4)).exists());

    // Reopening measures the real directory size, not the stale estimate.
    let reopened = DiskCache::with_capacity(dir.path(), 2500).unwrap();
    let (hits, misses) = reopened.counters();
    assert_eq!((hits, misses), (0, 0));
    assert!(reopened.load(4).is_some());
}

/// Many in-process writers racing `atomic_write_bytes` on one destination
/// while a sweeper runs `sweep_stale_tmp` over the same directory: every
/// write must succeed (the sweep must never reclaim an in-flight
/// temporary of this process), the final file must be exactly one
/// writer's payload (never interleaved), and no temporaries may remain.
#[test]
fn concurrent_atomic_writers_and_sweeps_never_corrupt() {
    use cla::cladb::{atomic_write_bytes, sweep_stale_tmp};
    use std::sync::atomic::{AtomicUsize, Ordering};

    let dir = TempDir::new("tmp-race");
    let target = dir.path().join("graph.clasnap");
    const WRITERS: usize = 8;
    const ROUNDS: usize = 30;
    let finished = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let (target, finished) = (&target, &finished);
            scope.spawn(move || {
                // One recognizable byte per writer: a torn or interleaved
                // publish would mix values and fail the uniformity check.
                let payload = vec![w as u8 + 1; 4096];
                for _ in 0..ROUNDS {
                    atomic_write_bytes(target, &payload)
                        .expect("atomic write lost to a name collision or sweep");
                }
                finished.fetch_add(1, Ordering::Relaxed);
            });
        }
        let (dirp, finished) = (dir.path(), &finished);
        scope.spawn(move || {
            // Sweep continuously for the whole time writes are in flight.
            while finished.load(Ordering::Relaxed) < WRITERS {
                sweep_stale_tmp(dirp).unwrap();
                std::thread::yield_now();
            }
        });
    });

    let bytes = std::fs::read(&target).unwrap();
    assert_eq!(bytes.len(), 4096, "published file is not one payload");
    assert!(
        bytes.iter().all(|b| *b == bytes[0]),
        "published file interleaves two writers"
    );
    // After the dust settles a final sweep finds nothing of ours left.
    let leftovers: Vec<_> = std::fs::read_dir(dir.path())
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "stray temporaries: {leftovers:?}");
}

/// Several threads race whole analyze-with-snapshot runs against one
/// shared directory: the first finishers save while the rest load (or
/// re-solve), `SnapshotStore::open`'s stale-temporary sweep runs in the
/// middle of in-flight saves, and the compile cache sees concurrent
/// stores of the same entries. Every run must produce the right answers,
/// and the directory must end in a loadable state.
#[test]
fn concurrent_snapshot_save_and_load_share_a_directory() {
    let dir = TempDir::new("concurrent-store");
    let mut fs = MemoryFs::new();
    fs.add("a.c", "int x; int *p; void f(void) { p = &x; }");
    fs.add("b.c", "extern int *p; int *q; void g(void) { q = p; }");
    let names = vec!["a.c".to_string(), "b.c".to_string()];

    std::thread::scope(|scope| {
        for _ in 0..6 {
            let (fs, names, dir) = (&fs, &names, dir.path());
            scope.spawn(move || {
                for _ in 0..3 {
                    let (analysis, (_, _, _)) = analyze_snapshotted(fs, names, dir);
                    let q = analysis.database.targets("q")[0];
                    let x = analysis.database.targets("x")[0];
                    assert!(
                        analysis.points_to.may_point_to(q, x),
                        "a racing save/load produced wrong answers"
                    );
                }
            });
        }
    });

    // Whoever won the save races, the surviving snapshot is complete and
    // matches the sources: a fresh run loads it with zero mismatches.
    let (warm, (loads, _, mismatches)) = analyze_snapshotted(&fs, &names, dir.path());
    assert!(
        warm.report.snapshot_loaded,
        "final snapshot is not loadable"
    );
    assert_eq!(loads, 1);
    assert_eq!(mismatches, 0);
}
