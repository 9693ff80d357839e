//! Integration tests for the observability layer: a full pipeline run must
//! emit a well-formed trace with spans from every layer (frontend, object
//! database, solver), and the Chrome JSONL writer's on-disk format must
//! parse line by line with balanced begin/end events.
//!
//! The trace sink is process-global, so everything that installs a sink
//! lives in this single test function — parallel test threads must not
//! fight over it.

use cla::obs::{self, MemorySink, Phase};
use cla::prelude::*;
use std::collections::{BTreeSet, HashMap};
use std::path::Path;
use std::sync::Arc;

fn sample_fs() -> MemoryFs {
    let mut fs = MemoryFs::new();
    fs.add(
        "a.c",
        "int x, y; int *p, **pp; void fa(void) { p = &x; pp = &p; *pp = &y; }",
    );
    fs.add("b.c", "extern int *p; int *q; void fb(void) { q = p; }");
    fs
}

/// Span name → the span it began under, once per begin; panics unless every
/// begin has its end on the same thread, properly nested.
fn begun_under(events: &[obs::TraceEvent]) -> Vec<(String, Option<String>)> {
    let mut open: HashMap<u64, Vec<String>> = HashMap::new();
    let mut begun = Vec::new();
    for ev in events {
        match ev.ph {
            Phase::Begin => {
                let stack = open.entry(ev.tid).or_default();
                begun.push((ev.name.clone(), stack.last().cloned()));
                stack.push(ev.name.clone());
            }
            Phase::End => {
                let top = open.entry(ev.tid).or_default().pop();
                assert_eq!(top.as_deref(), Some(ev.name.as_str()), "mismatched E");
            }
            _ => {}
        }
    }
    assert!(open.values().all(Vec::is_empty), "unclosed spans: {open:?}");
    begun
}

#[test]
fn pipeline_trace_is_balanced_and_layers_all_appear() {
    let obs = obs::global();

    // --- In-memory sink: inspect events structurally. ---
    let sink = Arc::new(MemorySink::new());
    obs.set_trace_sink(Some(sink.clone()));
    let fs = sample_fs();
    let analysis = analyze(&fs, &["a.c", "b.c"], &PipelineOptions::default()).unwrap();
    obs.set_trace_sink(None);
    let events = sink.take();
    assert!(!events.is_empty(), "tracing produced no events");

    // Every B has a matching E on the same thread, properly nested.
    let begun = begun_under(&events);

    // One run crosses every layer: pipeline phases, frontend, database,
    // solver. (The serve category is exercised in tests/serve.rs.)
    let cats: BTreeSet<&str> = events.iter().map(|e| e.cat).collect();
    for cat in ["pipeline", "front", "db", "solve"] {
        assert!(cats.contains(cat), "no `{cat}` spans in {cats:?}");
    }

    // A slow link is explainable from the trace alone: each unit is encoded
    // where it is compiled and folded (symbols, then merge) while the
    // compile phase runs, and the link phase is one assemble of the program
    // object and one open of the bytes it assembled.
    let under = |name: &str| -> Vec<Option<&str>> {
        (begun.iter())
            .filter(|(n, _)| n == name)
            .map(|(_, parent)| parent.as_deref())
            .collect()
    };
    let compiling = Some("pipeline.compile");
    assert_eq!(under("db.write_object"), [compiling; 2]);
    assert_eq!(under("link.symbols"), [compiling; 2]);
    assert_eq!(under("link.merge"), [compiling; 2]);
    assert_eq!(under("link.assemble"), [Some("pipeline.link")]);
    assert_eq!(under("db.open"), [Some("pipeline.link")]);

    // Whether an open hashed anything is in the trace: the linker hands its
    // program object over as a `UnitObject`, intact by construction, so the
    // open under `pipeline.link` verifies nothing — and the same bytes
    // opened cold are hashed section by section.
    let open_args = |events: &[obs::TraceEvent]| -> HashMap<&'static str, obs::ArgValue> {
        let end = (events.iter())
            .find(|e| e.name == "db.open" && matches!(e.ph, Phase::End))
            .expect("no db.open span");
        end.args.iter().cloned().collect()
    };
    let linked = open_args(&events);
    assert_eq!(linked["bytes_checksummed"], obs::ArgValue::U64(0));
    let units: Vec<CompiledUnit> = ["a.c", "b.c"]
        .iter()
        .map(|f| {
            compile_file(&fs, f, &PpOptions::default(), &LowerOptions::default())
                .unwrap()
                .0
        })
        .collect();
    let bytes = write_object(&link(&units, "a.out").0);
    let root = cla::cladb::container::Header::read(&bytes, &cla::cladb::FORMAT).unwrap();
    assert_eq!(root.checksum, analysis.database.content_hash());
    obs.set_trace_sink(Some(sink.clone()));
    Database::open(bytes).unwrap();
    obs.set_trace_sink(None);
    let cold = open_args(&sink.take());
    assert!(matches!(cold["bytes_checksummed"], obs::ArgValue::U64(n) if n > 0));
    assert_eq!(cold["strings"], linked["strings"]);

    // Satellite 1: the Report's phase times come from the same spans the
    // trace records, so each pipeline span's duration matches the Report.
    let dur_of = |name: &str| {
        let b = events
            .iter()
            .find(|e| e.name == name && matches!(e.ph, Phase::Begin))
            .unwrap();
        let e = events
            .iter()
            .find(|e| e.name == name && matches!(e.ph, Phase::End))
            .unwrap();
        e.ts_us - b.ts_us
    };
    let r = &analysis.report;
    for (name, reported) in [
        ("pipeline.compile", r.compile_time),
        ("pipeline.link", r.link_time),
        ("pipeline.solve", r.solve_time),
    ] {
        let traced = dur_of(name);
        let reported_us = reported.as_micros() as u64;
        // The two figures are reads of the same span a few instructions
        // apart; a generous slack keeps loaded CI machines from flaking.
        assert!(
            traced.abs_diff(reported_us) <= 250,
            "`{name}`: trace says {traced}us, Report says {reported_us}us"
        );
    }
    let assemble_us = r.link_times.assemble.as_micros() as u64;
    assert!(dur_of("link.assemble").abs_diff(assemble_us) <= 250);
    assert!(r.link_times.assemble + r.open_time <= r.link_time);

    // Per-pass solver spans carry the Figure 5 delta fields.
    let pass = events
        .iter()
        .find(|e| e.name == "solve.pass" && matches!(e.ph, Phase::End))
        .expect("no solve.pass span");
    let keys: BTreeSet<&str> = pass.args.iter().map(|(k, _)| *k).collect();
    for key in [
        "getlvals_calls",
        "cache_hits",
        "unifications",
        "edges_added",
    ] {
        assert!(keys.contains(key), "solve.pass missing `{key}`: {keys:?}");
    }

    // The set algebra is countable per span: every pass says what its unions
    // did, and so does the sweep that materializes the relation — as
    // `solve.seal` under the pipeline's solve phase, as `solve.extract`
    // beside `solve.fixpoint` when `solve_database` is called directly. On
    // the bundled example the sweep's counts are non-zero, consistent, and
    // the same on every run.
    const UNION_KEYS: [&str; 5] = [
        "unions",
        "unions_shared",
        "elements_scanned",
        "elements_written",
        "sets_distinct",
    ];
    for key in UNION_KEYS {
        assert!(keys.contains(key), "solve.pass missing `{key}`: {keys:?}");
    }
    assert_eq!(under("solve.seal"), [Some("pipeline.solve")]);
    let example = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/c");
    let mut example_fs = MemoryFs::new();
    for name in ["main.c", "store.c", "prog.h"] {
        example_fs.add(name, std::fs::read_to_string(example.join(name)).unwrap());
    }
    let example_units = ["main.c", "store.c"].map(|f| {
        compile_file(
            &example_fs,
            f,
            &PpOptions::default(),
            &LowerOptions::default(),
        )
        .unwrap()
        .0
    });
    let example_db = Database::open(write_object(&link(&example_units, "a.out").0)).unwrap();
    let sweep = || -> Vec<u64> {
        obs.set_trace_sink(Some(sink.clone()));
        solve_database(&example_db, SolveOptions::default());
        obs.set_trace_sink(None);
        let events = sink.take();
        let tops: Vec<String> = (begun_under(&events).into_iter())
            .filter_map(|(name, parent)| parent.is_none().then_some(name))
            .collect();
        assert_eq!(tops, ["solve.fixpoint", "solve.extract"]);
        let end = (events.iter())
            .find(|e| e.name == "solve.extract" && matches!(e.ph, Phase::End))
            .expect("no solve.extract span");
        let args: HashMap<&str, obs::ArgValue> = end.args.iter().cloned().collect();
        (UNION_KEYS.iter())
            .map(|key| match args[key] {
                obs::ArgValue::U64(n) => n,
                ref other => panic!("`{key}` is {other:?}"),
            })
            .collect()
    };
    let counts = sweep();
    assert!(counts.iter().all(|&n| n > 0), "{UNION_KEYS:?} = {counts:?}");
    assert!(counts[1] <= counts[0], "unions_shared > unions: {counts:?}");
    assert_eq!(sweep(), counts, "the sweep's counts differ run to run");

    // The global registry now holds demand-load and solver counters.
    let text = obs.prometheus_text();
    let samples = obs::parse_exposition(&text).unwrap();
    let value_of = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("missing `{name}` in exposition"))
            .value
    };
    assert!(value_of("cla_db_assigns_loaded_total") >= 1.0);
    assert!(value_of("cla_solve_passes_total") >= 1.0);
    assert!(value_of("cla_solve_union_calls_total") >= counts[0] as f64);
    assert!(value_of("cla_solve_union_shared_total") <= value_of("cla_solve_union_calls_total"));
    assert!(value_of("cla_front_files_total") >= 2.0);

    // A warm run through the compile cache keys each file by its manifest:
    // a `cache.direct` span where the cold run had `pp`, saying how much
    // source the check hashed, and no preprocessing at all.
    assert_eq!(under("pp"), [compiling; 2]);
    let dir = std::env::temp_dir().join(format!("cla-obs-it-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = DiskCache::open(&dir).unwrap();
    let hooks = AnalyzeHooks {
        compile_cache: Some(&cache),
        snapshots: None,
    };
    let opts = PipelineOptions::default();
    analyze_with(&fs, &["a.c", "b.c"], &opts, &hooks).unwrap();
    obs.set_trace_sink(Some(sink.clone()));
    let warm = analyze_with(&fs, &["a.c", "b.c"], &opts, &hooks).unwrap();
    obs.set_trace_sink(None);
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(warm.report.compile_cache_direct_hits, 2);
    let events = sink.take();
    let begun = begun_under(&events);
    let warm_under = |name: &str| -> Vec<Option<&str>> {
        (begun.iter())
            .filter(|(n, _)| n == name)
            .map(|(_, parent)| parent.as_deref())
            .collect()
    };
    assert_eq!(warm_under("cache.direct"), [compiling; 2]);
    assert!(
        warm_under("pp").is_empty(),
        "a direct hit preprocesses nothing"
    );
    let hashed: u64 = (events.iter())
        .filter(|e| e.name == "cache.direct" && matches!(e.ph, Phase::End))
        .map(|e| {
            let args: HashMap<&str, obs::ArgValue> = e.args.iter().cloned().collect();
            assert_eq!(args["sources_hashed"], obs::ArgValue::U64(1));
            match args["bytes_hashed"] {
                obs::ArgValue::U64(n) => n,
                ref other => panic!("bytes_hashed is {other:?}"),
            }
        })
        .sum();
    assert_eq!(hashed, warm.report.source_bytes);

    // A warm run with a snapshot says what it checksummed, span by span:
    // each cached object whole on its way to the linker, the program object
    // the linker assembled, the snapshot's graph sections, and nothing at
    // the open of what the linker handed over.
    let dir = std::env::temp_dir().join(format!("cla-obs-it-sums-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = DiskCache::open(&dir.join("cache")).unwrap();
    let store = SnapshotStore::open(&dir.join("snap")).unwrap();
    let hooks = AnalyzeHooks {
        compile_cache: Some(&cache),
        snapshots: Some(&store),
    };
    let files = ["main.c", "store.c"];
    analyze_with(&example_fs, &files, &opts, &hooks).unwrap();
    obs.set_trace_sink(Some(sink.clone()));
    let warm = analyze_with(&example_fs, &files, &opts, &hooks).unwrap();
    obs.set_trace_sink(None);
    let cached: Vec<u64> = (std::fs::read_dir(dir.join("cache")).unwrap())
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "clao"))
        .map(|p| std::fs::metadata(p).unwrap().len())
        .collect();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(warm.report.compile_cache_hits, 2);
    assert!(warm.report.snapshot_loaded);
    assert_eq!(cached.len(), 2);
    let events = sink.take();
    let checksummed = |name: &str| -> Vec<u64> {
        (events.iter())
            .filter(|e| e.name == name && matches!(e.ph, Phase::End))
            .map(
                |e| match e.args.iter().find(|(k, _)| *k == "bytes_checksummed") {
                    Some((_, obs::ArgValue::U64(n))) => *n,
                    other => panic!("`{name}` has bytes_checksummed {other:?}"),
                },
            )
            .collect()
    };
    // Every byte of an object is under a checksum but its magic, its
    // version and the header sum itself.
    const UNSUMMED: u64 = 4 + 4 + 8;
    let verified = checksummed("db.verify_object");
    assert_eq!(verified.len(), 2);
    let whole: u64 = cached.iter().map(|len| len - UNSUMMED).sum();
    assert_eq!(verified.iter().sum::<u64>(), whole);
    let assembled = checksummed("link.assemble");
    assert!(matches!(assembled[..], [n] if n >= warm.report.object_size as u64 - UNSUMMED));
    assert!(matches!(checksummed("snap.load")[..], [n] if n > 0));
    assert_eq!(checksummed("db.open"), [0]);

    // --- Chrome JSONL writer: the on-disk streaming format. ---
    let path = std::env::temp_dir().join(format!("cla-obs-it-{}.json", std::process::id()));
    let writer = obs::ChromeTraceWriter::create(&path).unwrap();
    obs.set_trace_sink(Some(Arc::new(writer)));
    let fs = sample_fs();
    let _ = analyze(&fs, &["a.c", "b.c"], &PipelineOptions::default()).unwrap();
    obs.set_trace_sink(None);

    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines = text.lines();
    assert_eq!(lines.next(), Some("["), "streaming array header");
    let mut balance: HashMap<u64, i64> = HashMap::new();
    let mut parsed = 0usize;
    for line in lines {
        let line = line.trim_end_matches(',');
        if line.is_empty() {
            continue;
        }
        let v = cla::serve::json::parse(line)
            .unwrap_or_else(|e| panic!("unparseable trace line {line:?}: {e}"));
        use cla::serve::json::Value;
        let ph = v.get("ph").and_then(Value::as_str).unwrap();
        let tid = v.get("tid").and_then(Value::as_u64).unwrap();
        *balance.entry(tid).or_default() += match ph {
            "B" => 1,
            "E" => -1,
            _ => 0,
        };
        parsed += 1;
    }
    assert!(parsed > 5, "only {parsed} events in the file");
    assert!(
        balance.values().all(|&n| n == 0),
        "unbalanced B/E per tid: {balance:?}"
    );
    let _ = std::fs::remove_file(&path);
}
