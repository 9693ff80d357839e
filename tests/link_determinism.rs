//! Link determinism: the same compiled units in the same order must
//! produce byte-identical object files (so content-addressed caching and
//! snapshot provenance hashing are stable), and a permuted unit order must
//! still produce a semantically equivalent database — every by-name
//! points-to answer identical, even though internal ids may differ. And
//! every route through the one build path — batch or session, any pool
//! size, first build or forced reload — must agree on the program, on the
//! quarantine ledger and on which failure a strict build reports. The
//! linker every one of those routes links with is held to literal pins of
//! its bytes and stats, taken when a second, unit-level linker still
//! checked them, and the deductive oracle's by-name relation of the linked
//! example units is pinned apart from any linker or solver.

use cla::cladb::container::Header;
use cla::cladb::{xxh64, LinkStats, ObjectLinker, StreamLinker, UnitObject, FORMAT};
use cla::hub::dispatch;
use cla::prelude::*;
use cla::serve::json::{obj, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

const SOURCES: [(&str, &str); 3] = [
    (
        "a.c",
        "int x, y; int *p; int **pp; void fa(void) { p = &x; pp = &p; *pp = &y; }",
    ),
    (
        "b.c",
        "extern int *p; int *q; int w; void fb(void) { q = p; *q = w; }",
    ),
    (
        "c.c",
        "extern int *q; int *t; int u; void fc(int *arg) { t = arg; } void fd(void) { fc(q); fc(&u); }",
    ),
];

fn compile_units() -> Vec<CompiledUnit> {
    SOURCES
        .iter()
        .map(|(name, text)| compile_source(text, name, &LowerOptions::default()).unwrap())
        .collect()
}

/// By-name points-to map: variable name → set of pointee names, unioned
/// over same-named objects. Names survive permutation; ids do not.
fn answers_by_name(bytes: Vec<u8>) -> BTreeMap<String, BTreeSet<String>> {
    let db = Database::open(bytes).unwrap();
    let (pts, _) = solve_database(&db, SolveOptions::default());
    let mut out: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (id, obj) in db.objects().iter().enumerate() {
        let entry = out.entry(obj.name.clone()).or_default();
        for &t in pts.points_to(ObjId(id as u32)) {
            entry.insert(db.object(t).name.clone());
        }
    }
    out
}

#[test]
fn same_units_same_order_link_byte_identically() {
    let units = compile_units();
    let (prog_a, _) = link(&units, "a.out");
    let (prog_b, _) = link(&units, "a.out");
    let bytes_a = write_object(&prog_a);
    let bytes_b = write_object(&prog_b);
    assert_eq!(
        bytes_a, bytes_b,
        "relinking identical inputs changed the output bytes"
    );
}

#[test]
fn recompiling_from_scratch_is_also_byte_identical() {
    // The full compile + link + write path must be reproducible, not just
    // the linker: cache keys and snapshot provenance both hash these bytes.
    let (a, _) = link(&compile_units(), "a.out");
    let (b, _) = link(&compile_units(), "a.out");
    assert_eq!(write_object(&a), write_object(&b));
}

/// The program of `units` linked serially in input order, as bytes.
fn serial_link(units: &[CompiledUnit], summarize: bool) -> (Vec<u8>, LinkStats) {
    let mut linker = ObjectLinker::new("a.out");
    for unit in units {
        linker.add(&UnitObject::encode(unit));
    }
    let linked = linker.finish(summarize);
    (linked.object.bytes().to_vec(), linked.stats)
}

/// What a link is pinned by: the program object's length and XXH64, and
/// the `LinkStats` tuple `(units, objects_in, objects_out, symbols_merged,
/// assigns)`.
type Pin = (usize, u64, [usize; 5]);

fn stats_tuple(s: LinkStats) -> [usize; 5] {
    [
        s.units,
        s.objects_in,
        s.objects_out,
        s.symbols_merged,
        s.assigns,
    ]
}

fn pin(bytes: &[u8], stats: LinkStats) -> Pin {
    (bytes.len(), xxh64(bytes, 0), stats_tuple(stats))
}

/// Every order of `0..n` (Heap's algorithm).
fn permutations(n: usize) -> Vec<Vec<usize>> {
    fn go(k: usize, items: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if k <= 1 {
            out.push(items.clone());
            return;
        }
        for i in 0..k {
            go(k - 1, items, out);
            items.swap(if k.is_multiple_of(2) { i } else { 0 }, k - 1);
        }
    }
    let mut out = Vec::new();
    go(n, &mut (0..n).collect(), &mut out);
    out
}

/// The units of [`generated_tree`], compiled one by one.
fn generated_units() -> Vec<CompiledUnit> {
    let (fs, files) = generated_tree();
    let (pp, lower) = (PpOptions::default(), LowerOptions::default());
    (files.iter())
        .map(|f| compile_file(&fs, f, &pp, &lower).unwrap().0)
        .collect()
}

#[test]
fn stream_link_is_byte_identical_for_every_arrival_order() {
    // A parallel compile pool finishes units in whatever order the scheduler
    // picks. The stream linker must absorb any completion order of their
    // objects and still produce the pinned bytes of the serial link, every
    // object folded in input order. Completion order is allowed to change
    // the buffered window, never the output. Three shapes of build: every
    // unit there (strict), one replaced by the empty placeholder a
    // quarantined file leaves (lenient), and that with unknown summaries
    // for what the lost unit defined.
    let mut pins = Vec::new();
    for units in [compile_units(), generated_units()] {
        let mut lenient = units.clone();
        lenient[1] = CompiledUnit::new(lenient[1].file.clone());
        for (units, summarize) in [(&units, false), (&lenient, false), (&lenient, true)] {
            let (serial_bytes, serial_stats) = serial_link(units, summarize);
            pins.push(pin(&serial_bytes, serial_stats));
            let objects: Vec<UnitObject> = units.iter().map(UnitObject::encode).collect();
            if summarize {
                let (bare, _) = serial_link(units, false);
                assert_ne!(bare, serial_bytes, "the placeholder left nothing undefined");
            }
            for order in permutations(units.len()) {
                let mut stream = StreamLinker::new("a.out");
                for &i in &order {
                    stream.push(i, objects[i].clone());
                }
                assert_eq!(
                    stream.folded(),
                    units.len(),
                    "order {order:?} left units buffered"
                );
                let peak = stream.peak_buffered();
                assert!(
                    (1..=units.len()).contains(&peak),
                    "order {order:?}: implausible reorder-buffer peak {peak}"
                );
                let linked = stream.finish().finish(summarize);
                assert!(
                    linked.object.bytes() == serial_bytes,
                    "arrival order {order:?} (summaries: {summarize}) leaked into the linked bytes"
                );
                assert_eq!(linked.stats, serial_stats);
                assert_eq!(linked.unknown_summaries > 0, summarize);
            }
        }
    }

    assert_eq!(pins, SERIAL_PINS);

    // The boundary cases of the buffered window: in-order arrival never
    // holds more than the unit in hand; fully reversed arrival holds all.
    let units = compile_units();
    let mut in_order = StreamLinker::new("a.out");
    let mut reversed = StreamLinker::new("a.out");
    for i in 0..units.len() {
        in_order.push(i, UnitObject::encode(&units[i]));
        let last = units.len() - 1 - i;
        reversed.push(last, UnitObject::encode(&units[last]));
    }
    assert_eq!(in_order.peak_buffered(), 1);
    assert_eq!(reversed.peak_buffered(), units.len());
}

/// The serial links above: [`compile_units`] then [`generated_units`], each
/// strict, lenient, and lenient with unknown summaries.
const SERIAL_PINS: [Pin; 6] = [
    (1905, 0xb2a98eba3ac8c58e, [3, 21, 19, 2, 10]),
    (1644, 0x85e0a0e6bf3843cc, [3, 16, 16, 0, 8]),
    (1757, 0xb7042792b7308d72, [3, 16, 16, 0, 8]),
    (111270, 0xede611540876b895, [6, 1522, 1033, 489, 2116]),
    (95001, 0xcd9bbe6976f82d0a, [6, 1275, 890, 385, 1768]),
    (95494, 0x34985775fd79da1f, [6, 1275, 890, 385, 1768]),
];

/// By-name answers of a batch analysis, in the shape a session answers in.
fn analysis_by_name(a: &Analysis) -> BTreeMap<String, BTreeSet<String>> {
    a.database
        .target_names()
        .map(|name| {
            let mut set = BTreeSet::new();
            for &o in a.database.targets(name) {
                for &t in a.points_to.points_to(o) {
                    set.insert(a.database.object(t).name.clone());
                }
            }
            (name.to_string(), set)
        })
        .collect()
}

/// The same for a session, over the names `like` has — all of which the
/// session must know.
fn session_by_name(
    session: &Session,
    like: &BTreeMap<String, BTreeSet<String>>,
) -> BTreeMap<String, BTreeSet<String>> {
    like.keys()
        .map(|name| {
            let answer = session
                .points_to(name)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let set = answer.targets.iter().map(|t| t.name.clone()).collect();
            (name.clone(), set)
        })
        .collect()
}

/// The generated six-file tree every route below builds.
fn generated_tree() -> (MemoryFs, Vec<String>) {
    let profile = cla::genc::Profile::parse(
        "name = \"det\"\ntotal_loc = 2400\nfiles = 6\nindirect_call_rate = 0.05\n",
    )
    .unwrap();
    let mut fs = MemoryFs::new();
    generate_with(&profile, 7, &mut |name, text| {
        fs.add(name.to_owned(), text.to_owned());
        Ok(())
    })
    .unwrap();
    let files = (0..profile.files)
        .map(|i| cla::genc::file_name(&profile, i))
        .collect();
    (fs, files)
}

#[test]
fn parallel_and_serial_compile_link_byte_identically() {
    // End to end through the one build path: batch `analyze` at any pool
    // size, a session's first build at any pool size and the same session
    // after a forced reload, a session over the serial run's linked object
    // and a hub tenant opened over the wire must all produce the program a
    // serial batch run produces — the byte-identical database where bytes
    // can be had, the identical by-name relation and quarantine ledger
    // everywhere — strict over the clean tree and lenient over a tree with
    // two hostile files.
    let (clean, files) = generated_tree();
    let mut hostile = clean.clone();
    hostile.add(files[1].clone(), "int broken = ;\n");
    hostile.add(files[4].clone(), "#include \"no-such-header.h\"\n");
    let refs: Vec<&str> = files.iter().map(String::as_str).collect();

    for (fs, strict, ledger) in [
        (&clean, true, vec![]),
        (&hostile, false, vec![refs[1], refs[4]]),
    ] {
        let opts = PipelineOptions {
            strict,
            ..Default::default()
        };
        let serial = analyze(fs, &refs, &opts).unwrap();
        let serial_bytes = write_object(&serial.database.to_unit().unwrap());
        let serial_answers = analysis_by_name(&serial);
        assert_eq!(serial.report.jobs, 1);
        assert!(serial_answers.values().any(|s| !s.is_empty()));
        let ledger_of =
            |q: &[Quarantined]| -> Vec<String> { q.iter().map(|q| q.file.clone()).collect() };
        assert_eq!(ledger_of(&serial.report.quarantined), ledger);

        for jobs in [0, 2, 4] {
            let opts = PipelineOptions {
                parallel_compile: true,
                jobs,
                ..opts.clone()
            };
            let parallel = analyze(fs, &refs, &opts).unwrap();
            assert_eq!(
                write_object(&parallel.database.to_unit().unwrap()),
                serial_bytes,
                "jobs={jobs} changed the linked database bytes"
            );
            assert_eq!(ledger_of(&parallel.report.quarantined), ledger);
            // Streaming link: the reorder buffer stays bounded by the pool's
            // backpressure window, never approaching the file count.
            assert!(
                parallel.report.peak_buffered_units <= (2 * parallel.report.jobs).max(1),
                "jobs={jobs}: buffered {} units",
                parallel.report.peak_buffered_units
            );
        }

        for jobs in [1, 4] {
            let session = Session::open(&SessionSpec {
                source: SessionSource::Files {
                    fs: Arc::new(fs.clone()),
                    files: files.clone(),
                    pp: opts.pp.clone(),
                    lower: opts.lower.clone(),
                    lenient: !strict,
                },
                solve: opts.solver,
                snapshot_dir: None,
                jobs,
            })
            .unwrap();
            for reloaded in [false, true] {
                if reloaded {
                    let r = session.reload(Some(fs), true).unwrap();
                    assert!(r.relinked);
                    assert_eq!(r.recompiled.len(), refs.len() - ledger.len());
                    assert_eq!(r.quarantined, ledger);
                }
                assert_eq!(
                    session_by_name(&session, &serial_answers),
                    serial_answers,
                    "session jobs={jobs} reloaded={reloaded} answers differently"
                );
                assert_eq!(ledger_of(&session.quarantined()), ledger);
            }
        }

        let dir = TempDir::new(if strict { "strict" } else { "lenient" });
        if strict {
            let path = dir.0.join("prog.clao");
            std::fs::write(&path, &serial_bytes).unwrap();
            let session = Session::open(&SessionSpec {
                source: SessionSource::Object { path },
                solve: opts.solver,
                snapshot_dir: None,
                jobs: 1,
            })
            .unwrap();
            assert_eq!(
                session_by_name(&session, &serial_answers),
                serial_answers,
                "the object session answers differently"
            );
            assert_eq!(ledger_of(&session.quarantined()), ledger);
        }

        // The wire `open` reads its sources from disk.
        for (name, text) in fs.iter() {
            std::fs::write(dir.0.join(name), text.as_bytes()).unwrap();
        }
        let prefix = format!("{}/", dir.0.display());
        let on_disk = files.iter().map(|f| Value::from(format!("{prefix}{f}")));
        let hub = Hub::new(HubOptions::default());
        let reply = dispatch(
            &hub,
            &obj([
                ("cmd", "open".into()),
                ("session", "t".into()),
                ("files", Value::Arr(on_disk.collect())),
                ("lenient", (!strict).into()),
            ])
            .encode(),
        );
        assert_eq!(
            reply.get("ok").and_then(Value::as_bool),
            Some(true),
            "{reply:?}"
        );
        let (answers, tenant_ledger) = hub
            .with_session("t", |s, _| {
                (session_by_name(s, &serial_answers), s.quarantined())
            })
            .unwrap();
        assert_eq!(
            answers, serial_answers,
            "the hub tenant answers differently"
        );
        let tenant_ledger: Vec<&str> = (tenant_ledger.iter())
            .map(|q| q.file.strip_prefix(&prefix).unwrap())
            .collect();
        assert_eq!(tenant_ledger, ledger);
    }
}

/// A provider whose `read` panics for one path: a frontend panic on demand.
struct PanickyFs {
    inner: MemoryFs,
    bad: String,
}

impl FileProvider for PanickyFs {
    fn read(&self, path: &str) -> Option<std::sync::Arc<str>> {
        assert!(path != self.bad, "the disk under {path} is on fire");
        self.inner.read(path)
    }
}

#[test]
fn every_route_reports_the_same_failure_as_a_value() {
    // Twelve files; #3 breaks at the very end of a long body, #9 breaks on
    // its first line — so in a pool #9's failure is usually the first to
    // *arrive*. A strict build must report #3's all the same, at any pool
    // size, from `analyze` and from a session alike.
    let mut fs = MemoryFs::new();
    let files: Vec<String> = (0..12).map(|i| format!("f{i}.c")).collect();
    for (i, f) in files.iter().enumerate() {
        fs.add(
            f.clone(),
            format!("int g{i}; int *p{i}; void fn{i}(void) {{ p{i} = &g{i}; }}\n"),
        );
    }
    let long_body: String = (0..4000).map(|k| format!("int filler{k};\n")).collect();
    fs.add("f3.c", format!("{long_body}int broken = ;\n"));
    fs.add("f9.c", "#include \"missing.h\"\n");
    let refs: Vec<&str> = files.iter().map(String::as_str).collect();
    let (pp, lower) = (PpOptions::default(), LowerOptions::default());
    for round in 0..50 {
        for jobs in [1, 2, 4] {
            let opts = PipelineOptions {
                parallel_compile: true,
                jobs,
                ..Default::default()
            };
            let batch = analyze(&fs, &refs, &opts).unwrap_err().to_string();
            assert!(
                batch.contains("4001:14: expected expression"),
                "round {round} jobs={jobs}: {batch}"
            );
            let served = Session::from_files_jobs(
                &fs,
                &refs,
                &pp,
                &lower,
                SolveOptions::default(),
                None,
                jobs,
            )
            .err()
            .expect("a strict session over a broken tree")
            .to_string();
            assert!(served.contains(&batch), "{served:?} vs {batch:?}");
        }
    }

    // A panic in the frontend is a typed error when strict and a ledger
    // entry when lenient — never an unwind through the caller.
    let mut inner = MemoryFs::new();
    for (i, f) in files.iter().enumerate() {
        inner.add(f.clone(), format!("int g{i}; int *p{i} = &g{i};\n"));
    }
    let fs = Arc::new(PanickyFs {
        inner,
        bad: files[5].clone(),
    });
    for jobs in [1, 4] {
        let strict = Session::from_files_jobs(
            fs.as_ref(),
            &refs,
            &pp,
            &lower,
            SolveOptions::default(),
            None,
            jobs,
        );
        assert!(
            matches!(&strict, Err(cla::serve::SessionError::Compile(e)) if e.to_string().contains("on fire")),
            "jobs={jobs}: {:?}",
            strict.err()
        );
        let lenient = Session::open(&SessionSpec {
            source: SessionSource::Files {
                fs: fs.clone(),
                files: files.clone(),
                pp: pp.clone(),
                lower: lower.clone(),
                lenient: true,
            },
            solve: SolveOptions::default(),
            snapshot_dir: None,
            jobs,
        })
        .unwrap();
        let ledger = lenient.quarantined();
        assert_eq!(ledger.len(), 1);
        assert_eq!(ledger[0].file, files[5]);
        assert!(matches!(ledger[0].reason, QuarantineReason::Panic(_)));
        assert!(lenient.points_to("p4").is_ok() && lenient.points_to("p5").is_err());
    }
}

#[test]
fn permuted_unit_order_gives_a_semantically_equal_database() {
    let units = compile_units();
    let (forward, _) = link(&units, "a.out");
    let forward_bytes = write_object(&forward);

    let permutations: [[usize; 3]; 3] = [[2, 1, 0], [1, 2, 0], [2, 0, 1]];
    let baseline = answers_by_name(forward_bytes);
    assert!(
        baseline.values().any(|s| !s.is_empty()),
        "baseline program must have nonempty points-to sets"
    );
    for perm in permutations {
        let shuffled: Vec<CompiledUnit> = perm.iter().map(|&i| units[i].clone()).collect();
        let (prog, stats) = link(&shuffled, "a.out");
        let answers = answers_by_name(write_object(&prog));
        assert_eq!(
            baseline, answers,
            "unit order {perm:?} changed observable points-to behavior"
        );
        assert_eq!(stats.units, 3);
    }
}

/// By-name points-to relation of a linked program as the deductive oracle
/// derives it, empty sets left out: independent of the production solvers.
fn oracle_by_name(units: &[CompiledUnit]) -> BTreeMap<String, BTreeSet<String>> {
    let (program, _) = link(units, "a.out");
    let pts = cla::core::deductive::solve_oracle(&program);
    let mut out: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (id, set) in pts.iter() {
        for &t in set {
            let name = &program.object(id).name;
            let target = &program.object(t).name;
            out.entry(name.clone()).or_default().insert(target.clone());
        }
    }
    out
}

#[test]
fn the_oracle_relation_of_the_linked_units_is_pinned() {
    // Neither the linker nor a production solver can move this table: it
    // was printed by the deductive oracle over the program the linker made
    // of [`SOURCES`], and every unit order must give it back.
    let pinned: BTreeMap<String, BTreeSet<String>> = (ORACLE_RELATION.iter())
        .map(|(name, set)| {
            (
                name.to_string(),
                set.iter().map(|t| t.to_string()).collect(),
            )
        })
        .collect();
    let units = compile_units();
    for perm in [[0, 1, 2], [2, 1, 0], [1, 2, 0], [2, 0, 1]] {
        let shuffled: Vec<CompiledUnit> = perm.iter().map(|&i| units[i].clone()).collect();
        assert_eq!(oracle_by_name(&shuffled), pinned, "unit order {perm:?}");
    }
}

const ORACLE_RELATION: &[(&str, &[&str])] = &[
    ("arg", &["u", "x", "y"]),
    ("fc$1", &["u", "x", "y"]),
    ("p", &["x", "y"]),
    ("pp", &["p"]),
    ("q", &["x", "y"]),
    ("t", &["u", "x", "y"]),
    ("tmp$1", &["y"]),
];

/// A scratch directory that is removed however the test ends.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("cla-link-it-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn cold_cache_warm_and_session_builds_link_the_reference_bytes() {
    // Where a unit's object comes from — encoded by the worker that just
    // compiled it, admitted undecoded from the compile cache, or kept by a
    // session across reloads — must not show in the program: every route
    // links the pinned bytes of the serial link of the same sources.
    let (fs, files) = generated_tree();
    let refs: Vec<&str> = files.iter().map(String::as_str).collect();
    let opts = PipelineOptions::default();
    // The root of an object's checksum tree, which `content_hash` reads.
    let root = |bytes: &[u8]| Header::read(bytes, &FORMAT).unwrap().checksum;
    let identity = |bytes: &[u8]| (bytes.len(), root(bytes));
    let of_db = |db: &Database| (db.file_size(), db.content_hash());
    let (reference, stats) = serial_link(&generated_units(), false);
    assert_eq!(
        (identity(&reference), stats_tuple(stats)),
        (GENERATED_IDENTITY, GENERATED_STATS)
    );

    let cold = analyze(&fs, &refs, &opts).unwrap();
    assert_eq!(of_db(&cold.database), identity(&reference));
    assert_eq!(cold.report.link_stats, stats);

    let dir = TempDir::new("routes");
    let cache = DiskCache::open(&dir.0.join("cache")).unwrap();
    let store = SnapshotStore::open(&dir.0.join("batch")).unwrap();
    let hooks = AnalyzeHooks {
        compile_cache: Some(&cache),
        snapshots: Some(&store),
    };
    for hits in [0, files.len()] {
        let run = analyze_with(&fs, &refs, &opts, &hooks).unwrap();
        assert_eq!(run.report.compile_cache_hits, hits);
        assert_eq!(run.report.snapshot_loaded, hits > 0);
        assert_eq!(of_db(&run.database), identity(&reference));
        assert_eq!(run.points_to, cold.points_to);
        let (r, c) = (&run.report, &cold.report);
        assert_eq!(r.link_stats, c.link_stats);
        assert_eq!(r.program_variables, c.program_variables);
        assert_eq!(r.assign_counts, c.assign_counts);
        assert_eq!(r.peak_buffered_units, c.peak_buffered_units);
    }
    assert_eq!(cache.counters(), (files.len() as u64, files.len() as u64));

    // A session keys its snapshot on the hash of the bytes it linked: read
    // it back from the store after each build.
    let snaps = dir.0.join("session");
    let linked_hash = || {
        let snap = Snapshot::open(&snaps.join(cla::snap::SNAPSHOT_FILE)).unwrap();
        snap.provenance().inputs[0].1
    };
    let session = Session::from_files_jobs(
        &fs,
        &refs,
        &opts.pp,
        &opts.lower,
        opts.solver,
        Some(&snaps),
        2,
    )
    .unwrap();
    assert_eq!(linked_hash(), root(&reference));

    let mut edited = fs.clone();
    let original = fs.read(&files[2]).unwrap();
    edited.add(
        files[2].clone(),
        format!("{original}\nint edit_x; int *edit_p; void edit_f(void) {{ edit_p = &edit_x; }}\n"),
    );
    let r = session.reload(Some(&edited), false).unwrap();
    assert_eq!(r.recompiled, [files[2].clone()]);
    let edited_cold = analyze(&edited, &refs, &opts).unwrap();
    assert_ne!(edited_cold.database.content_hash(), root(&reference));
    assert_eq!(linked_hash(), edited_cold.database.content_hash());
    assert_eq!(
        session.points_to("edit_p").unwrap().targets[0].name,
        "edit_x"
    );

    let r = session.reload(Some(&fs), false).unwrap();
    assert_eq!(r.recompiled, [files[2].clone()]);
    assert_eq!(linked_hash(), root(&reference));
    assert!(session.points_to("edit_p").is_err());
}

/// The strict link of [`generated_units`]: length and checksum-tree root of
/// its bytes, and its `LinkStats` tuple.
const GENERATED_IDENTITY: (usize, u64) = (111270, 0x500d2f61558fd374);
const GENERATED_STATS: [usize; 5] = [6, 1522, 1033, 489, 2116];
