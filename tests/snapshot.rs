//! Persistence integration tests: snapshot round trips must be
//! observationally exact (identical points-to answers, stats, and sharing
//! behavior), provenance mismatches must force a full re-solve, the
//! compile cache must survive corruption by falling back to the compiler,
//! and stale temporaries from crashed writers must be reclaimed on open.

use cla::core::pipeline::{CompileCache as _, Provenance, SnapshotHook};
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
    let corrupt_total = || process_counter("cla_snap_cache_corrupt_total");
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

/// `bytes` of a container file with its version word set one below
/// `version`: a file the previous build of the format wrote.
fn previous_version(mut bytes: Vec<u8>, version: u32) -> Vec<u8> {
    bytes[4..8].copy_from_slice(&(version - 1).to_le_bytes());
    bytes
}

fn process_counter(name: &str) -> f64 {
    let samples = cla::obs::parse_exposition(&cla::obs::global().prometheus_text()).unwrap();
    (samples.iter())
        .find(|s| s.name == name)
        .map_or(0.0, |s| s.value)
}

#[test]
fn a_snapshot_of_the_previous_version_is_a_miss_that_is_rewritten() {
    let dir = TempDir::new("old-snapshot");
    let (fs, names) = workload_fs("nethack", 0.05, 11);
    let (cold, _) = analyze_snapshotted(&fs, &names, dir.path());
    let path = dir.path().join(cla::snap::SNAPSHOT_FILE);
    let current = std::fs::read(&path).unwrap();
    std::fs::write(&path, previous_version(current, cla::snap::VERSION)).unwrap();

    let before = process_counter("cla_snap_mismatch_total");
    let (resolved, (loads, saves, mismatches)) = analyze_snapshotted(&fs, &names, dir.path());
    assert!(
        !resolved.report.snapshot_loaded,
        "an old snapshot was loaded"
    );
    assert_eq!((loads, saves, mismatches), (0, 1, 1));
    assert!(process_counter("cla_snap_mismatch_total") >= before + 1.0);
    assert_eq!(resolved.points_to, cold.points_to);
    assert_eq!(resolved.report.solve_stats, cold.report.solve_stats);

    // Rewritten at the current version, and a warm start again.
    let rewritten = std::fs::read(&path).unwrap();
    assert_eq!(rewritten[4..8], cla::snap::VERSION.to_le_bytes());
    assert!(Snapshot::from_bytes(rewritten).is_ok());
    let (warm, (loads, _, mismatches)) = analyze_snapshotted(&fs, &names, dir.path());
    assert!(warm.report.snapshot_loaded);
    assert_eq!((loads, mismatches), (1, 0));
    assert_eq!(warm.points_to, cold.points_to);
    assert_eq!(warm.report.solve_stats, cold.report.solve_stats);
}

#[test]
fn a_cached_object_of_the_previous_version_is_a_counted_recompile() {
    let dir = TempDir::new("old-object");
    let (fs, names) = workload_fs("nethack", 0.05, 11);
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let run = || {
        let cache = DiskCache::open(&dir.path().join("cache")).unwrap();
        let hooks = AnalyzeHooks {
            compile_cache: Some(&cache),
            snapshots: None,
        };
        let a = analyze_with(&fs, &refs, &PipelineOptions::default(), &hooks).unwrap();
        (a, cache.counters(), cache.corrupt())
    };
    let (cold, _, _) = run();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir.path().join("cache"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "clao"))
        .collect();
    entries.sort();
    assert_eq!(entries.len(), refs.len());
    // Under its current key: only the version word says it is stale.
    let current = std::fs::read(&entries[0]).unwrap();
    std::fs::write(
        &entries[0],
        previous_version(current.clone(), cla::cladb::VERSION),
    )
    .unwrap();

    let before = process_counter("cla_snap_cache_corrupt_total");
    let (recompiled, counters, corrupt) = run();
    let n = refs.len() as u64;
    assert_eq!((counters, corrupt), ((n - 1, 1), 1));
    assert_eq!(recompiled.report.compile_cache_misses, 1);
    assert!(process_counter("cla_snap_cache_corrupt_total") >= before + 1.0);
    assert_eq!(recompiled.points_to, cold.points_to);
    assert_eq!(
        recompiled.database.content_hash(),
        cold.database.content_hash()
    );
    assert_eq!(
        std::fs::read(&entries[0]).unwrap(),
        current,
        "not rewritten"
    );
    let (_, counters, corrupt) = run();
    assert_eq!((counters, corrupt), ((n, 0), 0));
}

/// `examples/c` in a `MemoryFs`.
fn example_fs() -> (MemoryFs, Vec<String>) {
    let example = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/c");
    let mut fs = MemoryFs::new();
    for name in ["main.c", "store.c", "prog.h"] {
        fs.add(name, std::fs::read_to_string(example.join(name)).unwrap());
    }
    (fs, vec!["main.c".to_string(), "store.c".to_string()])
}

/// Every count a [`Report`] carries, as one comparable value.
fn report_counts(r: &Report) -> impl PartialEq + std::fmt::Debug {
    (
        (r.files, r.source_bytes, r.preprocessed_lines),
        (r.program_variables, r.assign_counts, r.object_size),
        (r.link_stats, r.load_stats, r.solve_stats),
        (
            r.pointer_variables,
            r.relations,
            r.jobs,
            r.peak_buffered_units,
        ),
        (
            r.compile_cache_hits,
            r.compile_cache_misses,
            r.compile_cache_direct_hits,
            r.snapshot_loaded,
        ),
        (r.quarantined.len(), r.unknown_summaries),
    )
}

/// [`analyze_snapshotted`] with a trace sink attached: also the names of
/// the spans the run began on this thread (a serial run's only thread).
/// The sink is process-global, so one test alone installs it.
fn analyze_traced(fs: &MemoryFs, names: &[String], dir: &Path) -> (Analysis, Vec<String>) {
    let obs = cla::obs::global();
    let sink = std::sync::Arc::new(cla::obs::MemorySink::new());
    obs.set_trace_sink(Some(sink.clone()));
    let (analysis, _) = analyze_snapshotted(fs, names, dir);
    obs.set_trace_sink(None);
    let tid = cla::obs::current_tid();
    let begun = (sink.take().into_iter())
        .filter(|e| e.tid == tid && matches!(e.ph, cla::obs::Phase::Begin))
        .map(|e| e.name)
        .collect();
    (analysis, begun)
}

#[test]
fn a_warm_run_opens_the_program_it_linked_last_time() {
    let nethack = workload_fs("nethack", 0.05, 11);
    let example = example_fs();
    for (tag, (fs, names)) in [("nethack", &nethack), ("examples-c", &example)] {
        let dir = TempDir::new(&format!("program-{tag}"));
        let store = SnapshotStore::open(dir.path()).unwrap();
        let (cold, _) = analyze_snapshotted(fs, names, dir.path());
        assert!(!cold.report.program_loaded, "{tag}");
        let stored = store.program_files();
        assert_eq!(stored.len(), 1, "{tag}: the linked program was not stored");

        // Without the stored program a warm run links again, and stores it
        // again.
        std::fs::remove_file(&stored[0]).unwrap();
        let (linked, _) = analyze_snapshotted(fs, names, dir.path());
        assert!(!linked.report.program_loaded, "{tag}");
        assert!(linked.report.snapshot_loaded, "{tag}");
        assert_eq!(store.program_files(), stored, "{tag}");

        let (opened, begun) = analyze_traced(fs, names, dir.path());
        assert!(
            opened.report.program_loaded,
            "{tag}: the stored program was not opened"
        );
        let linking: Vec<&String> = begun.iter().filter(|n| n.starts_with("link.")).collect();
        assert!(linking.is_empty(), "{tag}: linked anyway: {linking:?}");
        assert!(begun.iter().any(|n| n == "db.admit"), "{tag}: {begun:?}");
        // The same analysis the fold route produced, count for count.
        assert_eq!(opened.database.file_size(), linked.database.file_size());
        assert_eq!(
            opened.database.content_hash(),
            linked.database.content_hash(),
            "{tag}"
        );
        assert_eq!(opened.points_to, linked.points_to, "{tag}");
        assert_eq!(
            report_counts(&opened.report),
            report_counts(&linked.report),
            "{tag}"
        );
        assert_eq!(opened.points_to, cold.points_to, "{tag}");
        assert_eq!(
            opened.database.content_hash(),
            cold.database.content_hash(),
            "{tag}"
        );
    }
}

#[test]
fn a_damaged_stored_program_is_a_counted_miss_that_is_linked_and_rewritten() {
    use cla::cladb::container::Header;
    use cla::cladb::{SectionId, FORMAT};
    let (fs, names) = workload_fs("nethack", 0.05, 11);
    for damage in ["truncated", "dynamic-block", "previous-version"] {
        let dir = TempDir::new(&format!("program-{damage}"));
        let store = SnapshotStore::open(dir.path()).unwrap();
        let (cold, _) = analyze_snapshotted(&fs, &names, dir.path());
        let stored = store.program_files();
        let [path] = &stored[..] else {
            panic!("{damage}: stored {stored:?}")
        };
        let pristine = std::fs::read(path).unwrap();
        let damaged = match damage {
            "truncated" => pristine[..pristine.len() / 2].to_vec(),
            "dynamic-block" => {
                let table = Header::read(&pristine, &FORMAT).unwrap().table;
                let entry = (table.iter())
                    .find(|e| e.id == SectionId::Dynamic as u32)
                    .unwrap();
                let mut bytes = pristine.clone();
                // The last byte of the section lies in the blob of blocks,
                // which only the block's own checksum covers.
                bytes[(entry.offset + entry.len - 1) as usize] ^= 0x20;
                assert!(Database::open(bytes.clone()).is_ok());
                bytes
            }
            _ => previous_version(pristine.clone(), cla::cladb::VERSION),
        };
        std::fs::write(path, &damaged).unwrap();

        let before = process_counter("cla_snap_program_mismatch_total");
        let (relinked, _) = analyze_snapshotted(&fs, &names, dir.path());
        assert!(
            !relinked.report.program_loaded,
            "{damage}: a damaged program was opened"
        );
        assert!(
            process_counter("cla_snap_program_mismatch_total") >= before + 1.0,
            "{damage}"
        );
        assert_eq!(relinked.points_to, cold.points_to, "{damage}");
        assert_eq!(
            relinked.database.content_hash(),
            cold.database.content_hash(),
            "{damage}"
        );
        assert_eq!(store.program_files(), stored, "{damage}");
        assert_eq!(
            std::fs::read(path).unwrap(),
            pristine,
            "{damage}: not rewritten"
        );

        let (opened, _) = analyze_snapshotted(&fs, &names, dir.path());
        assert!(opened.report.program_loaded, "{damage}");
        assert_eq!(opened.points_to, cold.points_to, "{damage}");
    }
}

#[test]
fn an_edited_source_is_linked_afresh_and_its_program_replaces_the_old_one() {
    let dir = TempDir::new("program-edit");
    let store = SnapshotStore::open(dir.path()).unwrap();
    let mut fs = MemoryFs::new();
    fs.add("a.c", "int x; int *p; void f(void) { p = &x; }");
    fs.add("b.c", "extern int *p; int *q; void g(void) { q = p; }");
    let names = vec!["a.c".to_string(), "b.c".to_string()];
    analyze_snapshotted(&fs, &names, dir.path());
    let before = store.program_files();
    assert_eq!(before.len(), 1);

    fs.add(
        "b.c",
        "extern int *p; int x2; int *q; void g(void) { q = p; q = &x2; }",
    );
    let (edited, _) = analyze_snapshotted(&fs, &names, dir.path());
    assert!(!edited.report.program_loaded, "a stale program was opened");
    let q = edited.database.targets("q")[0];
    let x2 = edited.database.targets("x2")[0];
    assert!(
        edited.points_to.may_point_to(q, x2),
        "the link missed the edit"
    );
    let after = store.program_files();
    assert_eq!(after.len(), 1, "the store holds {after:?}");
    assert_ne!(after, before);

    let (warm, _) = analyze_snapshotted(&fs, &names, dir.path());
    assert!(warm.report.program_loaded);
    assert_eq!(warm.points_to, edited.points_to);
    assert_eq!(warm.database.content_hash(), edited.database.content_hash());
}

/// A snapshot store that counts what a run asks of its program entry.
struct Watched<'a> {
    store: &'a SnapshotStore,
    program_loads: std::sync::atomic::AtomicUsize,
    program_saves: std::sync::atomic::AtomicUsize,
}

impl<'a> Watched<'a> {
    fn new(store: &'a SnapshotStore) -> Self {
        Watched {
            store,
            program_loads: Default::default(),
            program_saves: Default::default(),
        }
    }

    fn asked(&self) -> (usize, usize) {
        use std::sync::atomic::Ordering::Relaxed;
        (
            self.program_loads.load(Relaxed),
            self.program_saves.load(Relaxed),
        )
    }
}

impl SnapshotHook for Watched<'_> {
    fn load(&self, prov: &Provenance) -> Option<cla::core::SealedGraph> {
        self.store.load(prov)
    }
    fn save(&self, prov: &Provenance, sealed: &cla::core::SealedGraph, names: &[&str]) {
        self.store.save(prov, sealed, names);
    }
    fn load_program(&self, prov: &Provenance) -> Option<Vec<u8>> {
        self.program_loads
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.store.load_program(prov)
    }
    fn save_program(&self, prov: &Provenance, bytes: &[u8]) {
        self.program_saves
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.store.save_program(prov, bytes);
    }
}

#[test]
fn a_lenient_run_with_a_quarantined_unit_neither_reads_nor_writes_a_program() {
    let dir = TempDir::new("program-partial");
    let mut fs = MemoryFs::new();
    fs.add("a.c", "int x; int *p; void f(void) { p = &x; }");
    fs.add("b.c", "extern int *p; int *q; void g(void) { q = p; }");
    let refs = ["a.c", "b.c"];
    let lenient = PipelineOptions {
        strict: false,
        ..PipelineOptions::default()
    };
    let cache = DiskCache::open(&dir.path().join("cache")).unwrap();
    let store = SnapshotStore::open(dir.path()).unwrap();
    let run = |fs: &MemoryFs| {
        let watched = Watched::new(&store);
        let hooks = AnalyzeHooks {
            compile_cache: Some(&cache),
            snapshots: Some(&watched),
        };
        let analysis = analyze_with(fs, &refs, &lenient, &hooks).unwrap();
        (analysis, watched.asked())
    };
    let (_, asked) = run(&fs);
    assert_eq!(asked, (0, 1), "a clean cold run stores its program");
    let stored = store.program_files();
    let bytes = std::fs::read(&stored[0]).unwrap();

    fs.add("b.c", "int broken = ;");
    let (partial, asked) = run(&fs);
    assert!(partial.report.is_partial());
    assert!(!partial.report.program_loaded);
    assert_eq!(asked, (0, 0), "a partial run touched the stored program");
    assert_eq!(store.program_files(), stored);
    assert_eq!(std::fs::read(&stored[0]).unwrap(), bytes);

    // Nor does a partial run on a fresh store leave a program behind.
    let fresh = TempDir::new("program-partial-fresh");
    let cache = DiskCache::open(&fresh.path().join("cache")).unwrap();
    let store = SnapshotStore::open(fresh.path()).unwrap();
    let watched = Watched::new(&store);
    let hooks = AnalyzeHooks {
        compile_cache: Some(&cache),
        snapshots: Some(&watched),
    };
    for _ in 0..2 {
        let a = analyze_with(&fs, &refs, &lenient, &hooks).unwrap();
        assert!(a.report.is_partial());
    }
    assert_eq!(watched.asked(), (0, 0));
    assert!(store.program_files().is_empty());
}

/// A file system in which one file reads once and then reads as `after`
/// (gone when `None`): an edit or a removal landing between the run keying
/// the file and building it.
struct Shifting {
    inner: MemoryFs,
    file: &'static str,
    after: Option<std::sync::Arc<str>>,
    reads: std::sync::atomic::AtomicUsize,
}

impl Shifting {
    fn new(inner: &MemoryFs, file: &'static str, after: Option<&str>) -> Shifting {
        Shifting {
            inner: inner.clone(),
            file,
            after: after.map(Into::into),
            reads: Default::default(),
        }
    }
}

impl cla::cfront::FileProvider for Shifting {
    fn read(&self, path: &str) -> Option<std::sync::Arc<str>> {
        let reads = &self.reads;
        if path == self.file && reads.fetch_add(1, std::sync::atomic::Ordering::Relaxed) > 0 {
            return self.after.clone();
        }
        self.inner.read(path)
    }
}

/// Deletes every object the compile cache in `dir` holds, as an eviction
/// would, and leaves the manifests.
fn evict_objects(dir: &Path) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|x| x == "clao") {
            std::fs::remove_file(path).unwrap();
        }
    }
}

#[test]
fn a_unit_that_fails_after_its_manifest_held_is_quarantined_and_the_rest_linked() {
    let dir = TempDir::new("program-vanishing");
    let mut fs = MemoryFs::new();
    fs.add("a.c", "int x; int *p; void f(void) { p = &x; }");
    fs.add("b.c", "extern int *p; int *q; void g(void) { q = p; }");
    let refs = ["a.c", "b.c"];
    let lenient = PipelineOptions {
        strict: false,
        ..PipelineOptions::default()
    };
    let cache = DiskCache::open(&dir.path().join("cache")).unwrap();
    let store = SnapshotStore::open(dir.path()).unwrap();
    let hooks = AnalyzeHooks {
        compile_cache: Some(&cache),
        snapshots: Some(&store),
    };
    analyze_with(&fs, &refs, &lenient, &hooks).unwrap();
    let stored = store.program_files();
    assert_eq!(stored.len(), 1);
    // Without their objects the units must be compiled again. `b.c`'s
    // manifest holds when the run keys it, so the stored program is
    // opened, but by the time it is compiled the file is gone.
    evict_objects(&dir.path().join("cache"));
    let vanishing = Shifting::new(&fs, "b.c", None);
    let before = cache.counters();
    let partial = analyze_with(&vanishing, &refs, &lenient, &hooks).unwrap();
    // The unit pass runs twice: once on the stored-program route, where
    // both objects miss and `a.c` is compiled and stored again, and once
    // more to fold, keying each file afresh, where `a.c` hits and `b.c`
    // (gone) is never looked up. The cache counts both passes.
    let after = cache.counters();
    assert_eq!((after.0 - before.0, after.1 - before.1), (1, 2));
    let quarantined: Vec<&str> = (partial.report.quarantined.iter())
        .map(|q| q.file.as_str())
        .collect();
    assert_eq!(quarantined, ["b.c"]);
    assert!(
        !partial.report.program_loaded,
        "a partial run answered from the whole stored program"
    );
    // The answers are those of the surviving unit alone.
    let mut without_b = fs.clone();
    without_b.add("b.c", "int broken = ;");
    let expected = analyze(&without_b, &refs, &lenient).unwrap();
    assert_eq!(partial.points_to, expected.points_to);
    assert_eq!(
        partial.database.content_hash(),
        expected.database.content_hash()
    );
    assert_eq!(store.program_files(), stored);
}

#[test]
fn a_source_edited_after_its_manifest_held_is_linked_from_the_new_text() {
    let dir = TempDir::new("program-shifting");
    let mut fs = MemoryFs::new();
    fs.add("a.c", "int x; int *p; void f(void) { p = &x; }");
    fs.add("b.c", "extern int *p; int *q; void g(void) { q = p; }");
    let names = vec!["a.c".to_string(), "b.c".to_string()];
    let refs = ["a.c", "b.c"];
    let opts = PipelineOptions::default();
    let cache = DiskCache::open(&dir.path().join("cache")).unwrap();
    let store = SnapshotStore::open(dir.path()).unwrap();
    let hooks = AnalyzeHooks {
        compile_cache: Some(&cache),
        snapshots: Some(&store),
    };
    analyze_with(&fs, &refs, &opts, &hooks).unwrap();
    assert_eq!(store.program_files().len(), 1);

    // `b.c`'s manifest holds when the run keys it, so the stored program
    // is opened; its object is gone, and the compile that replaces it reads
    // the edited text.
    let edited = "extern int *p; int y; int *q; void g(void) { q = &y; }";
    evict_objects(&dir.path().join("cache"));
    let shifting = Shifting::new(&fs, "b.c", Some(edited));
    let mut new_fs = fs.clone();
    new_fs.add("b.c", edited);
    let expected = analyze(&new_fs, &refs, &opts).unwrap();
    let run = analyze_with(&shifting, &refs, &opts, &hooks).unwrap();
    assert!(
        !run.report.program_loaded,
        "the program stored for the old text was opened"
    );
    assert_eq!(run.points_to, expected.points_to);
    assert_eq!(
        run.database.content_hash(),
        expected.database.content_hash()
    );

    // Nor did the run store the old answers under the new text's keys.
    let (next, _) = analyze_snapshotted(&new_fs, &names, dir.path());
    assert!(next.report.program_loaded);
    assert!(next.report.snapshot_loaded);
    assert_eq!(next.points_to, expected.points_to);
    assert_eq!(
        next.database.content_hash(),
        expected.database.content_hash()
    );
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
