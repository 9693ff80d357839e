//! The compile cache's direct mode: a warm build keys each file by hashing
//! the closure its manifest recorded instead of preprocessing it, and must
//! be indistinguishable from a cold `analyze` of the same inputs.
//!
//! Every run of the equivalence test is compared with a cold run on the
//! linked bytes, the snapshot provenance, the points-to relation, the
//! report's source accounting and which files were compiled. The manifest
//! tests damage, delete and evict manifests and require the same answers.

use cla::cladb::fault::{bit_flip_round, judge, truncation_sweep, with_quiet_panics, FuzzReport};
use cla::core::pipeline::{
    manifest_key, options_fingerprint, CompileCache, Manifest, Provenance, SnapshotHook,
};
use cla::core::SealedGraph;
use cla::prelude::*;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The tests here read process-wide counters, so they take turns.
static SERIAL: Mutex<()> = Mutex::new(());

/// A test directory that cleans up after itself even on panic.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("cla-direct-it-{tag}-{}", std::process::id()));
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

/// A source tree laid out so that every include probes two missing paths
/// before it is found: `.c` files in `src/`, headers in `inc/`, and the
/// empty `shadow/` ahead of `inc/` on the include path.
struct Tree {
    dir: TempDir,
    files: Vec<String>,
    header: PathBuf,
}

impl Tree {
    fn new(tag: &str, sources: Vec<(String, String)>) -> Tree {
        let dir = TempDir::new(tag);
        for sub in ["src", "inc", "shadow", "cache"] {
            std::fs::create_dir_all(dir.path().join(sub)).unwrap();
        }
        let (mut files, mut header) = (Vec::new(), None);
        for (name, text) in sources {
            let sub = if name.ends_with(".c") { "src" } else { "inc" };
            let path = dir.path().join(sub).join(&name);
            std::fs::write(&path, text).unwrap();
            if sub == "src" {
                files.push(path.to_string_lossy().into_owned());
            } else {
                header = Some(path);
            }
        }
        Tree {
            dir,
            files,
            header: header.expect("a tree with a header"),
        }
    }

    fn examples() -> Tree {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/c");
        let sources = ["main.c", "store.c", "prog.h"]
            .map(|n| (n.to_string(), std::fs::read_to_string(dir.join(n)).unwrap()));
        Tree::new("examples", sources.into())
    }

    fn ci_small() -> Tree {
        let profile =
            Profile::load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("profiles/ci-small.toml"))
                .unwrap();
        let mut sources = Vec::new();
        generate_with(&profile, profile.seed, &mut |name, text| {
            sources.push((name.to_owned(), text.to_owned()));
            Ok(())
        })
        .unwrap();
        Tree::new("ci-small", sources)
    }

    fn options(&self) -> PipelineOptions {
        let mut opts = PipelineOptions::default();
        for sub in ["shadow", "inc"] {
            let dir = self.dir.path().join(sub);
            opts.pp
                .include_dirs
                .push(dir.to_string_lossy().into_owned());
        }
        opts
    }

    fn cache_dir(&self) -> PathBuf {
        self.dir.path().join("cache")
    }

    fn shadow(&self) -> PathBuf {
        self.dir
            .path()
            .join("shadow")
            .join(self.header.file_name().unwrap())
    }

    fn manifests(&self) -> Vec<PathBuf> {
        let mut found: Vec<PathBuf> = std::fs::read_dir(self.cache_dir().join("manifests"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        found.sort();
        found
    }
}

fn append(path: &Path, text: &str) {
    let old = std::fs::read_to_string(path).unwrap();
    std::fs::write(path, format!("{old}{text}")).unwrap();
}

/// The cache a run sees, recording which keys it stored: the files it
/// compiled.
struct Recording<'a> {
    inner: &'a DiskCache,
    stored: Mutex<Vec<u64>>,
}

impl CompileCache for Recording<'_> {
    fn load(&self, key: u64) -> Option<Vec<u8>> {
        self.inner.load(key)
    }
    fn store(&self, key: u64, bytes: &[u8]) {
        self.stored.lock().unwrap().push(key);
        self.inner.store(key, bytes);
    }
    fn reject(&self, key: u64) {
        self.inner.reject(key);
    }
    fn load_manifest(&self, key: u64) -> Option<Vec<u8>> {
        self.inner.load_manifest(key)
    }
    fn store_manifest(&self, key: u64, bytes: &[u8]) {
        self.inner.store_manifest(key, bytes);
    }
    fn reject_manifest(&self, key: u64) {
        self.inner.reject_manifest(key);
    }
}

/// A snapshot store that only remembers which provenance it was asked for.
#[derive(Default)]
struct Asked(Mutex<Option<Provenance>>);

impl SnapshotHook for Asked {
    fn load(&self, prov: &Provenance) -> Option<SealedGraph> {
        *self.0.lock().unwrap() = Some(prov.clone());
        None
    }
    fn save(&self, _: &Provenance, _: &SealedGraph, _: &[&str]) {}
}

/// What one run produced, in the terms the cold run is compared on.
#[derive(Debug, PartialEq)]
struct Outcome {
    linked: (usize, u64),
    provenance: Provenance,
    points_to: PointsTo,
    relations: usize,
    source_bytes: u64,
    preprocessed_lines: usize,
}

/// Runs `analyze_with`, through `cache` when given.
fn run(
    tree: &Tree,
    opts: &PipelineOptions,
    cache: Option<&DiskCache>,
) -> (Outcome, Report, BTreeSet<String>) {
    let refs: Vec<&str> = tree.files.iter().map(String::as_str).collect();
    let recording = cache.map(|inner| Recording {
        inner,
        stored: Mutex::new(Vec::new()),
    });
    let asked = Asked::default();
    let hooks = AnalyzeHooks {
        compile_cache: recording.as_ref().map(|r| r as &dyn CompileCache),
        snapshots: Some(&asked),
    };
    let a = analyze_with(&OsFs, &refs, opts, &hooks).unwrap();
    let provenance = asked
        .0
        .into_inner()
        .unwrap()
        .expect("the snapshot hook was asked");
    let stored = recording.map_or(Vec::new(), |r| r.stored.into_inner().unwrap());
    let compiled = (provenance.inputs.iter())
        .filter(|(_, key)| stored.contains(key))
        .map(|(file, _)| file.clone())
        .collect();
    let r = a.report;
    let outcome = Outcome {
        linked: (a.database.file_size(), a.database.content_hash()),
        provenance,
        points_to: a.points_to,
        relations: r.relations,
        source_bytes: r.source_bytes,
        preprocessed_lines: r.preprocessed_lines,
    };
    (outcome, r, compiled)
}

/// One run through the cache, checked against a cold run of the same
/// inputs: the same outcome, `compiled` compiled and everything else a
/// hit, `direct` of the hits keyed by manifest. The handle is fresh, so
/// its counters are this run's alone — and manifest reads are not in them.
fn check_step(tree: &Tree, step: &str, opts: &PipelineOptions, compiled: &[&str], direct: usize) {
    let (cold, cold_report, _) = run(tree, opts, None);
    assert_eq!(cold_report.compile_cache_hits, 0);
    let cache = DiskCache::open(&tree.cache_dir()).unwrap();
    let (warm, r, got) = run(tree, opts, Some(&cache));
    assert!(
        warm == cold,
        "{step}: the warm run differs from a cold analyze"
    );
    let want: BTreeSet<String> = compiled.iter().map(|s| (*s).to_owned()).collect();
    assert_eq!(got, want, "{step}: compiled files");
    let n = tree.files.len();
    let hits = n - compiled.len();
    assert_eq!(
        (
            r.compile_cache_hits,
            r.compile_cache_misses,
            r.compile_cache_direct_hits
        ),
        (hits, compiled.len(), direct),
        "{step}: hits, misses, direct hits"
    );
    assert_eq!(
        cache.counters(),
        (hits as u64, compiled.len() as u64),
        "{step}"
    );
}

fn equivalence(tree: &Tree) {
    let opts = tree.options();
    let all: Vec<&str> = tree.files.iter().map(String::as_str).collect();
    let n = all.len();
    let edited = all[0];

    check_step(tree, "populate", &opts, &all, 0);
    check_step(tree, "direct warm", &opts, &[], n);
    for m in tree.manifests() {
        std::fs::remove_file(m).unwrap();
    }
    check_step(tree, "keyed warm", &opts, &[], 0);
    assert_eq!(tree.manifests().len(), n, "the keyed run rewrote them");
    check_step(tree, "rewritten manifests", &opts, &[], n);

    append(
        Path::new(edited),
        "\nint direct_edit_x; int *direct_edit_p;\n",
    );
    check_step(tree, "edited .c", &opts, &[edited], n - 1);

    append(&tree.header, "\n#define DIRECT_HEADER_EDIT 1\n");
    check_step(tree, "edited header", &opts, &all, 0);

    let header = std::fs::read_to_string(&tree.header).unwrap();
    std::fs::write(tree.shadow(), format!("{header}\n#define SHADOWED 1\n")).unwrap();
    check_step(tree, "shadowing header", &opts, &all, 0);
    // Back to the edited header's closure, whose objects are still cached.
    std::fs::remove_file(tree.shadow()).unwrap();
    check_step(tree, "deleted header", &opts, &[], 0);

    let before = std::fs::read_to_string(edited).unwrap();
    append(Path::new(edited), "\nint direct_again;\n");
    check_step(tree, "edit", &opts, &[edited], n - 1);
    std::fs::write(edited, before).unwrap();
    check_step(tree, "revert", &opts, &[], n - 1);

    let mut defined = opts.clone();
    defined.pp.defines.push(("DIRECT_D".into(), "1".into()));
    check_step(tree, "-D", &defined, &all, 0);
    assert_eq!(
        tree.manifests().len(),
        2 * n,
        "one manifest per file and options"
    );
}

#[test]
fn direct_mode_matches_cold_analysis_on_the_examples() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    equivalence(&Tree::examples());
}

#[test]
fn direct_mode_matches_cold_analysis_on_ci_small() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    equivalence(&Tree::ci_small());
}

fn counter(name: &str) -> f64 {
    let samples = cla::obs::parse_exposition(&cla::obs::global().prometheus_text()).unwrap();
    (samples.iter())
        .find(|s| s.name == name)
        .map_or(0.0, |s| s.value)
}

/// Truncations and bit flips of one manifest: each is rejected — counted,
/// and the file keyed by preprocessing, which rewrites the manifest — or
/// reads as the pristine manifest; the answers are the cold ones either
/// way, and nothing panics.
#[test]
fn a_damaged_manifest_is_rejected_and_rebuilt() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let tree = Tree::examples();
    let opts = tree.options();
    let refs: Vec<&str> = tree.files.iter().map(String::as_str).collect();
    let cold = analyze(&OsFs, &refs, &opts).unwrap();
    let cache = DiskCache::open(&tree.cache_dir()).unwrap();
    let hooks = AnalyzeHooks {
        compile_cache: Some(&cache),
        snapshots: None,
    };
    analyze_with(&OsFs, &refs, &opts, &hooks).unwrap();
    let key = manifest_key(refs[0], options_fingerprint(&opts.pp, &opts.lower));
    let path = tree
        .cache_dir()
        .join("manifests")
        .join(format!("{key:016x}.clam"));
    let pristine = std::fs::read(&path).unwrap();
    let manifest = Manifest::decode(pristine.clone()).unwrap();
    assert_eq!(manifest.file, refs[0]);

    let exercise = |bytes: Vec<u8>| {
        std::fs::write(&path, &bytes).unwrap();
        judge(|| {
            let decoded = Manifest::decode(bytes);
            let warm = analyze_with(&OsFs, &refs, &opts, &hooks).unwrap();
            let r = &warm.report;
            let same = warm.points_to == cold.points_to
                && warm.database.content_hash() == cold.database.content_hash()
                && r.compile_cache_hits == refs.len();
            let direct = r.compile_cache_direct_hits;
            match decoded {
                Err(e) if same && direct == refs.len() - 1 => {
                    assert_eq!(std::fs::read(&path).unwrap(), pristine, "not rewritten");
                    Err(e)
                }
                Err(_) => Ok(false),
                Ok(m) => Ok(same && direct == refs.len() && m == manifest),
            }
        })
    };
    let (hits_before, misses_before) = (
        counter("cla_snap_cache_hits_total"),
        counter("cla_snap_cache_misses_total"),
    );
    let corrupt_before = counter("cla_snap_cache_manifest_corrupt_total");
    let mut report = FuzzReport::default();
    with_quiet_panics(|| {
        truncation_sweep(&pristine, exercise, &mut report);
        bit_flip_round(&pristine, exercise, 1, 200, &mut report);
    });
    assert!(report.ok(), "{report}");
    assert!(report.rejected >= pristine.len() as u64, "{report}");
    let corrupt = counter("cla_snap_cache_manifest_corrupt_total") - corrupt_before;
    assert_eq!(corrupt, report.rejected as f64);
    // Every run hit every object, however its manifest read.
    let runs = report.exercised as f64;
    assert_eq!(
        counter("cla_snap_cache_hits_total") - hits_before,
        runs * refs.len() as f64
    );
    assert_eq!(counter("cla_snap_cache_misses_total"), misses_before);
    assert_eq!(cache.counters(), (report.exercised * 2, 2));
}

/// The size cap counts manifests, and the LRU sweep evicts them like
/// objects; a file whose manifest is gone is keyed by preprocessing.
#[test]
fn manifests_count_toward_the_size_cap_and_are_evicted() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = TempDir::new("lru");
    let cache = DiskCache::with_capacity(dir.path(), 2500).unwrap();
    let payload = vec![7u8; 1000];
    cache.store_manifest(1, &payload);
    cache.store(2, &payload);
    let manifest = dir
        .path()
        .join("manifests")
        .join(format!("{:016x}.clam", 1));
    let aged = std::time::SystemTime::now() - std::time::Duration::from_secs(60);
    let f = std::fs::File::options()
        .append(true)
        .open(&manifest)
        .unwrap();
    f.set_modified(aged).unwrap();
    assert_eq!(cache.sweep().unwrap(), 2000);
    cache.store(3, &payload);
    assert!(
        !manifest.exists(),
        "the oldest entry, a manifest, goes first"
    );
    assert_eq!(cache.load_manifest(1), None);
    assert_eq!(cache.sweep().unwrap(), 2000);
    cache.store_manifest(4, &payload[..10]);
    assert_eq!(cache.sweep().unwrap(), 2010);
    assert_eq!(cache.counters(), (0, 0), "manifests are not hits or misses");

    // End to end: a tree whose manifests are evicted still hits by key.
    let tree = Tree::examples();
    let opts = tree.options();
    let refs: Vec<&str> = tree.files.iter().map(String::as_str).collect();
    check_step(&tree, "populate", &opts, &refs, 0);
    let objects_only: u64 = (std::fs::read_dir(tree.cache_dir()).unwrap())
        .filter_map(|e| {
            let e = e.unwrap();
            (e.path().extension().is_some_and(|x| x == "clao")).then(|| e.metadata().unwrap().len())
        })
        .sum();
    for m in tree.manifests() {
        let f = std::fs::File::options().append(true).open(&m).unwrap();
        f.set_modified(aged).unwrap();
    }
    let capped = DiskCache::with_capacity(&tree.cache_dir(), objects_only).unwrap();
    assert!(tree.manifests().is_empty(), "manifests evicted first");
    assert_eq!(capped.sweep().unwrap(), objects_only);
    let cache = DiskCache::open(&tree.cache_dir()).unwrap();
    let hooks = AnalyzeHooks {
        compile_cache: Some(&cache),
        snapshots: None,
    };
    let r = analyze_with(&OsFs, &refs, &opts, &hooks).unwrap().report;
    assert_eq!(
        (r.compile_cache_hits, r.compile_cache_direct_hits),
        (refs.len(), 0)
    );
}
