//! Integration tests for the query server: the socket protocol must give
//! the same answers as a batch `solve_database` run, stay consistent under
//! concurrent clients, and track source edits through `reload`.

use cla::prelude::*;
use cla::serve::json::{obj, parse, Value};
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write as _};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const FILE_A: &str = r"
    int x, y, z;
    int *p, *r;
    int **pp;
    void fa(void) {
        p = &x;
        r = &y;
        pp = &p;
        *pp = &z;
    }
";

const FILE_B: &str = r"
    extern int **pp;
    extern int *r;
    int *q, *s;
    int w;
    void fb(void) {
        q = *pp;
        s = r;
        *q = w;
    }
";

const FILE_C: &str = r"
    extern int *q;
    int *t;
    int u;
    void fc(int *arg) { t = arg; }
    void fd(void) { fc(q); fc(&u); }
";

/// Writes the sources into a fresh temp directory; returns absolute paths.
fn write_sources(tag: &str, files: &[(&str, &str)]) -> (PathBuf, Vec<String>) {
    let dir = std::env::temp_dir().join(format!("cla-serve-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let paths = files
        .iter()
        .map(|(name, text)| {
            let p = dir.join(name);
            std::fs::write(&p, text).unwrap();
            p.to_string_lossy().into_owned()
        })
        .collect();
    (dir, paths)
}

fn start_server(tag: &str, paths: &[String]) -> cla::serve::ServerHandle {
    let files: Vec<&str> = paths.iter().map(String::as_str).collect();
    let session = Session::from_files_jobs(
        &OsFs,
        &files,
        &PpOptions::default(),
        &LowerOptions::default(),
        SolveOptions::default(),
        None,
        1,
    )
    .unwrap();
    let socket =
        std::env::temp_dir().join(format!("cla-serve-it-{tag}-{}.sock", std::process::id()));
    cla::serve::serve(Arc::new(session), Some(Arc::new(OsFs)), &socket).unwrap()
}

fn ask(stream: &mut UnixStream, req: &Value) -> Value {
    stream
        .write_all(format!("{}\n", req.encode()).as_bytes())
        .unwrap();
    let mut line = String::new();
    BufReader::new(stream.try_clone().unwrap())
        .read_line(&mut line)
        .unwrap();
    parse(line.trim()).unwrap_or_else(|e| panic!("bad reply {line:?}: {e}"))
}

fn points_to_req(var: &str) -> Value {
    obj([("cmd", "points-to".into()), ("var", var.into())])
}

fn target_names(reply: &Value) -> BTreeSet<String> {
    assert_eq!(
        reply.get("ok").and_then(Value::as_bool),
        Some(true),
        "error reply: {}",
        reply.encode()
    );
    reply
        .get("targets")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|t| t.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect()
}

/// The batch oracle: a fresh `analyze` of the same sources, with points-to
/// targets unioned per variable *name* (matching the server's semantics).
/// Only symbol-indexed names are listed: internal objects (`fa$ret`,
/// temporaries) are not addressable over the wire.
fn batch_answers(paths: &[String]) -> Vec<(String, BTreeSet<String>)> {
    batch_answers_with(paths, &PpOptions::default())
}

/// [`batch_answers`] under preprocessor options `pp`.
fn batch_answers_with(paths: &[String], pp: &PpOptions) -> Vec<(String, BTreeSet<String>)> {
    let files: Vec<&str> = paths.iter().map(String::as_str).collect();
    let opts = PipelineOptions {
        pp: pp.clone(),
        ..Default::default()
    };
    let fresh = analyze(&OsFs, &files, &opts).unwrap();
    let names: BTreeSet<&str> = fresh.database.target_names().collect();
    names
        .into_iter()
        .map(|name| {
            let mut set = BTreeSet::new();
            for &o in fresh.database.targets(name) {
                for &t in fresh.points_to.points_to(o) {
                    set.insert(fresh.database.object(t).name.clone());
                }
            }
            (name.to_string(), set)
        })
        .collect()
}

#[test]
fn socket_answers_match_batch_for_every_variable() {
    let (dir, paths) = write_sources(
        "batch",
        &[("a.c", FILE_A), ("b.c", FILE_B), ("c.c", FILE_C)],
    );
    let oracle = batch_answers(&paths);
    assert!(
        oracle.iter().any(|(_, set)| !set.is_empty()),
        "oracle is trivial"
    );

    let server = start_server("batch", &paths);
    let mut c = UnixStream::connect(server.path()).unwrap();
    for (name, expected) in &oracle {
        let reply = ask(&mut c, &points_to_req(name));
        assert_eq!(
            &target_names(&reply),
            expected,
            "socket and batch disagree on `{name}`"
        );
    }
    // A second sweep is answered from the result cache.
    for (name, _) in &oracle {
        let reply = ask(&mut c, &points_to_req(name));
        assert_eq!(reply.get("cached").and_then(Value::as_bool), Some(true));
    }
    let stats = server.stop();
    assert!(
        stats.result_cache_hits > 0,
        "repeat queries must hit the cache"
    );
    assert!(stats.queries >= 2 * oracle.len() as u64);
    assert!(stats.p50_micros <= stats.p99_micros);
    let _ = std::fs::remove_dir_all(dir);
}

/// The listing a client picks names from offers only names the query
/// commands resolve: call-site temporaries such as `fc$1` have non-empty
/// sets too, but `points-to` rejects them as unknown.
#[test]
fn every_listed_pointer_variable_answers_points_to() {
    let (dir, paths) = write_sources(
        "listing",
        &[("a.c", FILE_A), ("b.c", FILE_B), ("c.c", FILE_C)],
    );
    let files: Vec<&str> = paths.iter().map(String::as_str).collect();
    let session = Session::from_files_jobs(
        &OsFs,
        &files,
        &PpOptions::default(),
        &LowerOptions::default(),
        SolveOptions::default(),
        None,
        1,
    )
    .unwrap();
    let listed = session.pointer_variables();
    for name in &listed {
        let answer = session
            .points_to(name)
            .unwrap_or_else(|e| panic!("listed name `{name}` does not answer: {e}"));
        assert!(
            !answer.targets.is_empty(),
            "`{name}` listed with no targets"
        );
    }
    // Nothing queryable is lost: the listing is the batch oracle's names
    // with a non-empty answer.
    let expected: Vec<String> = batch_answers(&paths)
        .into_iter()
        .filter(|(_, set)| !set.is_empty())
        .map(|(name, _)| name)
        .collect();
    assert_eq!(listed, expected);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn eight_concurrent_clients_get_identical_answers() {
    let (dir, paths) = write_sources("conc", &[("a.c", FILE_A), ("b.c", FILE_B), ("c.c", FILE_C)]);
    let oracle = batch_answers(&paths);
    let server = start_server("conc", &paths);
    let path = server.path().to_path_buf();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let path = &path;
                let oracle = &oracle;
                scope.spawn(move || {
                    let mut c = UnixStream::connect(path).unwrap();
                    // Stagger the sweep so threads race on different keys.
                    for round in 0..3 {
                        for (j, (name, expected)) in oracle.iter().enumerate() {
                            if (i + j + round) % 2 == 0 {
                                let reply = ask(&mut c, &points_to_req(name));
                                assert_eq!(
                                    &target_names(&reply),
                                    expected,
                                    "client {i} disagrees on `{name}`"
                                );
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });

    let stats = server.stop();
    assert!(stats.result_cache_hits > 0);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn reload_reflects_source_edits_and_invalidates() {
    let (dir, paths) = write_sources(
        "reload",
        &[
            ("a.c", "int x, y; int *p; void fa(void) { p = &x; }"),
            ("b.c", "extern int *p; int *q; void fb(void) { q = p; }"),
        ],
    );
    let server = start_server("reload", &paths);
    let mut c = UnixStream::connect(server.path()).unwrap();

    let before = target_names(&ask(&mut c, &points_to_req("q")));
    assert_eq!(before, BTreeSet::from(["x".to_string()]));
    // Warm the cache with a second variable so reload has entries to drop.
    let _ = ask(&mut c, &points_to_req("p"));

    // Edit a.c on disk: p now points at y.
    std::fs::write(
        Path::new(&paths[0]),
        "int x, y; int *p; void fa(void) { p = &y; }",
    )
    .unwrap();
    let reply = ask(&mut c, &obj([("cmd", "reload".into())]));
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(reply.get("relinked").and_then(Value::as_bool), Some(true));
    let recompiled: Vec<&str> = reply
        .get("recompiled")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(
        recompiled,
        vec![paths[0].as_str()],
        "only the edited file recompiles"
    );
    assert!(reply.get("invalidated").and_then(Value::as_u64).unwrap() >= 2);

    // Stale answers are gone: the same query now reports the new graph,
    // uncached.
    let reply = ask(&mut c, &points_to_req("q"));
    assert_eq!(reply.get("cached").and_then(Value::as_bool), Some(false));
    assert_eq!(target_names(&reply), BTreeSet::from(["y".to_string()]));

    // An untouched tree is a no-op reload that invalidates nothing.
    let reply = ask(&mut c, &obj([("cmd", "reload".into())]));
    assert_eq!(reply.get("relinked").and_then(Value::as_bool), Some(false));
    assert_eq!(reply.get("invalidated").and_then(Value::as_u64), Some(0));
    let reply = ask(&mut c, &points_to_req("q"));
    assert_eq!(reply.get("cached").and_then(Value::as_bool), Some(true));

    let stats = server.stop();
    assert_eq!(
        stats.reloads, 1,
        "the no-op check does not count as a reload"
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// Every points-to answer of `session` against the batch oracle.
fn assert_session_matches_fresh_analyze(session: &Session, paths: &[String]) {
    assert_session_matches_fresh_analyze_with(session, paths, &PpOptions::default());
}

/// [`assert_session_matches_fresh_analyze`] under preprocessor options `pp`.
fn assert_session_matches_fresh_analyze_with(session: &Session, paths: &[String], pp: &PpOptions) {
    let fresh = batch_answers_with(paths, pp);
    assert!(!fresh.is_empty());
    for (name, want) in fresh {
        let got: BTreeSet<String> = session
            .points_to(&name)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .targets
            .iter()
            .map(|t| t.name.clone())
            .collect();
        assert_eq!(got, want, "pts({name}) differs from a fresh analyze");
    }
}

/// A reload recompiles exactly the files whose inputs changed — the file
/// itself or a header it read — and then answers like a fresh build.
#[test]
fn reload_recompiles_exactly_the_files_whose_closure_changed() {
    let (dir, paths) = write_sources(
        "closure",
        &[
            ("defs.h", "#define TARGET x\n"),
            (
                "a.c",
                "#include \"defs.h\"\nint x, y; int *p; void fa(void) { p = &TARGET; }",
            ),
            (
                "b.c",
                "#include \"defs.h\"\nextern int x, y; int *q; void fb(void) { q = &TARGET; }",
            ),
            ("c.c", "int z, w; int *r; void fc(void) { r = &z; }"),
        ],
    );
    let files: Vec<&str> = paths[1..].iter().map(String::as_str).collect();
    let session = Session::from_files_jobs(
        &OsFs,
        &files,
        &PpOptions::default(),
        &LowerOptions::default(),
        SolveOptions::default(),
        None,
        1,
    )
    .unwrap();
    assert_session_matches_fresh_analyze(&session, &paths[1..]);

    // One .c edited: exactly that file.
    std::fs::write(files[2], "int z, w; int *r; void fc(void) { r = &w; }").unwrap();
    let r = session.reload(Some(&OsFs), false).unwrap();
    assert_eq!(r.recompiled, [files[2]]);
    assert!(r.relinked);
    assert_eq!(r.epoch, 1);
    assert_session_matches_fresh_analyze(&session, &paths[1..]);

    // The shared header edited: exactly its two includers.
    std::fs::write(&paths[0], "#define TARGET y\n").unwrap();
    let r = session.reload(Some(&OsFs), false).unwrap();
    assert_eq!(r.recompiled, [files[0], files[1]]);
    assert!(r.relinked);
    assert_eq!(r.epoch, 2);
    let p = session.points_to("p").unwrap();
    assert_eq!(
        p.targets
            .iter()
            .map(|t| t.name.as_str())
            .collect::<Vec<_>>(),
        ["y"]
    );
    assert_session_matches_fresh_analyze(&session, &paths[1..]);

    // Nothing touched: no relink, the result cache survives.
    let r = session.reload(Some(&OsFs), false).unwrap();
    assert!(r.recompiled.is_empty() && !r.relinked);
    assert_eq!((r.epoch, r.invalidated_results), (2, 0));
    assert!(session.points_to("p").unwrap().cached);
    let _ = std::fs::remove_dir_all(dir);
}

/// A header created at an include-path entry searched before the one a file
/// was built with shadows it: the reload must recompile the file, because
/// the preprocessor would now read the new header.
#[test]
fn reload_sees_a_header_created_earlier_on_the_include_path() {
    let (dir, paths) = write_sources(
        "shadow",
        &[(
            "main.c",
            "#include \"h.h\"\nint x, y; int *p; void f(void) { p = &TARGET; }",
        )],
    );
    let (a, b) = (dir.join("a"), dir.join("b"));
    std::fs::create_dir_all(&a).unwrap();
    std::fs::create_dir_all(&b).unwrap();
    std::fs::write(b.join("h.h"), "#define TARGET x\n").unwrap();
    let pp = PpOptions::default()
        .include_dir(a.to_string_lossy())
        .include_dir(b.to_string_lossy());
    let files = [paths[0].as_str()];
    let session = Session::from_files_jobs(
        &OsFs,
        &files,
        &pp,
        &LowerOptions::default(),
        SolveOptions::default(),
        None,
        1,
    )
    .unwrap();
    assert_session_matches_fresh_analyze_with(&session, &paths, &pp);

    std::fs::write(a.join("h.h"), "#define TARGET y\n").unwrap();
    let r = session.reload(Some(&OsFs), false).unwrap();
    assert_eq!(r.recompiled, files);
    assert!(r.relinked);
    let p = session.points_to("p").unwrap();
    assert_eq!(p.targets[0].name, "y");
    assert_session_matches_fresh_analyze_with(&session, &paths, &pp);

    // Deleting it again brings the shadowed header back.
    std::fs::remove_file(a.join("h.h")).unwrap();
    let r = session.reload(Some(&OsFs), false).unwrap();
    assert_eq!(r.recompiled, files);
    assert_eq!(session.points_to("p").unwrap().targets[0].name, "x");
    assert_session_matches_fresh_analyze_with(&session, &paths, &pp);
    let _ = std::fs::remove_dir_all(dir);
}

/// A lenient session whose source vanishes quarantines it at the next
/// reload — a missing file is a compile failure like any other — and
/// heals when the file comes back.
#[test]
fn lenient_session_quarantines_a_deleted_source_and_heals() {
    let (dir, paths) = write_sources(
        "vanish",
        &[
            ("a.c", "int x; int *p; void fa(void) { p = &x; }"),
            ("b.c", "extern int *p; int *q; void fb(void) { q = p; }"),
        ],
    );
    let files: Vec<&str> = paths.iter().map(String::as_str).collect();
    let session = Session::open(&SessionSpec {
        source: SessionSource::Files {
            fs: Arc::new(OsFs),
            files: paths.clone(),
            pp: PpOptions::default(),
            lower: LowerOptions::default(),
            lenient: true,
        },
        solve: SolveOptions::default(),
        snapshot_dir: None,
        jobs: 1,
    })
    .unwrap();
    assert_eq!(session.health().as_str(), "ok");

    let b_text = std::fs::read_to_string(files[1]).unwrap();
    std::fs::remove_file(files[1]).unwrap();
    let r = session.reload(Some(&OsFs), false).unwrap();
    assert!(r.relinked);
    assert_eq!(r.quarantined, [files[1]]);
    assert_eq!(session.health().as_str(), "partial");
    assert_eq!(session.quarantined()[0].file, files[1]);
    assert!(session.points_to("p").unwrap().partial);
    assert!(session.points_to("q").is_err(), "b.c's names are gone");

    std::fs::write(files[1], b_text).unwrap();
    let r = session.reload(Some(&OsFs), false).unwrap();
    assert_eq!(r.recompiled, [files[1]]);
    assert!(r.quarantined.is_empty());
    assert_eq!(session.health().as_str(), "ok");
    assert_session_matches_fresh_analyze(&session, &paths);

    // The strict twin reports the same vanished file as a compile error and
    // keeps serving its last good graph.
    let strict = Session::from_files_jobs(
        &OsFs,
        &files,
        &PpOptions::default(),
        &LowerOptions::default(),
        SolveOptions::default(),
        None,
        1,
    )
    .unwrap();
    std::fs::remove_file(files[1]).unwrap();
    assert!(matches!(
        strict.reload(Some(&OsFs), false),
        Err(cla::serve::SessionError::Compile(_))
    ));
    assert_eq!(strict.health().as_str(), "degraded");
    assert!(strict.points_to("q").is_ok());
    let _ = std::fs::remove_dir_all(dir);
}

/// Fully precomputed expected answers for one version of the sources:
/// points-to sets, alias verdicts, and dependents, all keyed by name. Plain
/// data, so the stress test's client threads can check replies against it
/// without sharing a database handle.
struct EpochOracle {
    pts: std::collections::HashMap<String, BTreeSet<String>>,
    alias: std::collections::HashMap<(String, String), bool>,
    depend: std::collections::HashMap<String, BTreeSet<String>>,
}

fn oracle_for(
    paths: &[String],
    names: &[&str],
    pairs: &[(&str, &str)],
    dep_targets: &[&str],
) -> EpochOracle {
    let units: Vec<CompiledUnit> = paths
        .iter()
        .map(|p| {
            compile_file(&OsFs, p, &PpOptions::default(), &LowerOptions::default())
                .unwrap()
                .0
        })
        .collect();
    let (program, _) = link(&units, "a.out");
    let db = Database::open(write_object(&program)).unwrap();
    let (pts, _) = solve_database(&db, SolveOptions::default());
    let set_of = |name: &str| -> BTreeSet<String> {
        let mut set = BTreeSet::new();
        for &o in db.targets(name) {
            for &t in pts.points_to(o) {
                set.insert(db.object(t).name.clone());
            }
        }
        set
    };
    let alias_of = |a: &str, b: &str| -> bool {
        db.targets(a).iter().any(|&oa| {
            db.targets(b).iter().any(|&ob| {
                let sa = pts.points_to(oa);
                pts.points_to(ob)
                    .iter()
                    .any(|t| sa.binary_search(t).is_ok())
            })
        })
    };
    let dep = DependenceAnalysis::new(&db, &pts);
    let depend = dep_targets
        .iter()
        .map(|t| {
            let report = dep.analyze(t, &DependOptions::default()).unwrap();
            let names: BTreeSet<String> = report
                .dependents()
                .iter()
                .map(|d| db.object(d.obj).name.clone())
                .collect();
            (t.to_string(), names)
        })
        .collect();
    EpochOracle {
        pts: names.iter().map(|n| (n.to_string(), set_of(n))).collect(),
        alias: pairs
            .iter()
            .map(|&(a, b)| ((a.to_string(), b.to_string()), alias_of(a, b)))
            .collect(),
        depend,
    }
}

/// The torn-snapshot race test: 8 client threads issue interleaved
/// points-to/alias/depend queries while the main thread keeps editing a.c
/// and reloading. Every reply names the epoch whose sealed snapshot
/// answered it, and must byte-for-byte match the batch `solve_database`
/// oracle for that epoch's sources — a reply mixing two epochs' worlds
/// (or a stale cache entry surviving a swap) fails the comparison.
#[test]
fn stress_concurrent_queries_race_reload_against_epoch_oracle() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    const A_V0: &str = FILE_A;
    const A_V1: &str = r"
        int x, y, z;
        int *p, *r;
        int **pp;
        void fa(void) {
            p = &y;
            r = &z;
            pp = &p;
            *pp = &x;
        }
    ";
    let names = ["p", "q", "r", "s", "t", "pp"];
    let pairs = [("p", "q"), ("q", "r"), ("s", "t"), ("p", "pp"), ("q", "s")];
    let dep_targets = ["w", "u"];

    let (dir, paths) = write_sources("stress", &[("a.c", A_V0), ("b.c", FILE_B), ("c.c", FILE_C)]);
    let oracles = [oracle_for(&paths, &names, &pairs, &dep_targets), {
        std::fs::write(Path::new(&paths[0]), A_V1).unwrap();
        let o = oracle_for(&paths, &names, &pairs, &dep_targets);
        std::fs::write(Path::new(&paths[0]), A_V0).unwrap();
        o
    }];
    // The two versions must actually disagree, or the test proves nothing.
    assert_ne!(oracles[0].pts["q"], oracles[1].pts["q"]);

    let server = start_server("stress", &paths);
    let path = server.path().to_path_buf();
    let stop = AtomicBool::new(false);
    let checked = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for i in 0..8 {
            let path = &path;
            let oracles = &oracles;
            let stop = &stop;
            let checked = &checked;
            scope.spawn(move || {
                let mut c = UnixStream::connect(path).unwrap();
                let mut iters = 0usize;
                while !stop.load(Ordering::Relaxed) || iters < 50 {
                    let j = i + iters;
                    let epoch_of = |reply: &Value| -> usize {
                        reply.get("epoch").and_then(Value::as_u64).unwrap() as usize
                    };
                    match j % 3 {
                        0 => {
                            let name = names[j % names.len()];
                            let reply = ask(&mut c, &points_to_req(name));
                            let want = &oracles[epoch_of(&reply) % 2].pts[name];
                            assert_eq!(
                                &target_names(&reply),
                                want,
                                "client {i}: torn points-to for `{name}`"
                            );
                        }
                        1 => {
                            let (a, b) = pairs[j % pairs.len()];
                            let reply = ask(
                                &mut c,
                                &obj([("cmd", "alias".into()), ("a", a.into()), ("b", b.into())]),
                            );
                            let want = oracles[epoch_of(&reply) % 2].alias
                                [&(a.to_string(), b.to_string())];
                            assert_eq!(
                                reply.get("alias").and_then(Value::as_bool),
                                Some(want),
                                "client {i}: torn alias for ({a},{b})"
                            );
                        }
                        _ => {
                            let t = dep_targets[j % dep_targets.len()];
                            let reply = ask(
                                &mut c,
                                &obj([("cmd", "depend".into()), ("target", t.into())]),
                            );
                            let got: BTreeSet<String> = reply
                                .get("dependents")
                                .and_then(Value::as_arr)
                                .unwrap()
                                .iter()
                                .filter_map(|d| d.get("name").and_then(Value::as_str))
                                .map(str::to_string)
                                .collect();
                            let want = &oracles[epoch_of(&reply) % 2].depend[t];
                            assert_eq!(&got, want, "client {i}: torn depend for `{t}`");
                        }
                    }
                    iters += 1;
                    checked.fetch_add(1, Ordering::Relaxed);
                }
            });
        }

        // Main thread: keep flipping a.c and reloading while clients hammer.
        let mut rc = UnixStream::connect(&path).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        for round in 0..6u64 {
            let text = if round % 2 == 0 { A_V1 } else { A_V0 };
            std::fs::write(Path::new(&paths[0]), text).unwrap();
            let reply = ask(&mut rc, &obj([("cmd", "reload".into())]));
            assert_eq!(
                reply.get("relinked").and_then(Value::as_bool),
                Some(true),
                "reload {round} did not relink: {}",
                reply.encode()
            );
            assert_eq!(
                reply.get("epoch").and_then(Value::as_u64),
                Some(round + 1),
                "epochs must advance by one per reload"
            );
            std::thread::sleep(std::time::Duration::from_millis(15));
        }
        stop.store(true, Ordering::Relaxed);
    });

    assert!(
        checked.load(std::sync::atomic::Ordering::Relaxed) >= 400,
        "stress test barely ran"
    );
    let stats = server.stop();
    assert_eq!(stats.reloads, 6);
    assert_eq!(stats.epoch, 6);
    assert!(stats.latency_samples <= stats.latency_capacity);
    let _ = std::fs::remove_dir_all(dir);
}

/// Satellite for the observability PR: the per-command counters exposed in
/// `stats` replies must count each wire command separately and stay
/// monotonic across a `reload` (which swaps the sealed snapshot but must
/// not reset telemetry), and the `metrics` command must return Prometheus
/// text that round-trips through the exposition parser.
#[test]
fn per_command_counters_monotonic_across_reload_and_metrics_parses() {
    let (dir, paths) = write_sources(
        "metrics",
        &[
            ("a.c", "int x, y; int *p; void fa(void) { p = &x; }"),
            ("b.c", "extern int *p; int *q; void fb(void) { q = p; }"),
        ],
    );
    let server = start_server("metrics", &paths);
    let mut c = UnixStream::connect(server.path()).unwrap();

    let snapshot = |c: &mut UnixStream| -> Vec<u64> {
        let reply = ask(c, &obj([("cmd", "stats".into())]));
        assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true));
        let s = reply.get("stats").unwrap();
        [
            "cmd_points_to",
            "cmd_alias",
            "cmd_depend",
            "cmd_stats",
            "cmd_reload",
        ]
        .iter()
        .map(|k| {
            s.get(k)
                .and_then(Value::as_u64)
                .unwrap_or_else(|| panic!("stats reply missing `{k}`: {}", reply.encode()))
        })
        .collect()
    };

    let _ = ask(&mut c, &points_to_req("q"));
    let _ = ask(
        &mut c,
        &obj([
            ("cmd", "alias".into()),
            ("a", "p".into()),
            ("b", "q".into()),
        ]),
    );
    let _ = ask(
        &mut c,
        &obj([("cmd", "depend".into()), ("target", "x".into())]),
    );
    let before = snapshot(&mut c);
    // One of each query command, plus the stats call counting itself.
    assert_eq!(before, vec![1, 1, 1, 1, 0]);

    // Edit a.c and reload: the snapshot swaps, the counters must not.
    std::fs::write(
        Path::new(&paths[0]),
        "int x, y; int *p; void fa(void) { p = &y; }",
    )
    .unwrap();
    let reply = ask(&mut c, &obj([("cmd", "reload".into())]));
    assert_eq!(reply.get("relinked").and_then(Value::as_bool), Some(true));

    let _ = ask(&mut c, &points_to_req("q"));
    let after = snapshot(&mut c);
    assert!(
        before.iter().zip(&after).all(|(b, a)| a >= b),
        "counters went backwards across reload: {before:?} -> {after:?}"
    );
    assert_eq!(after[0], 2, "second points-to counted after reload");
    assert_eq!(after[3], 2, "second stats counted");
    assert_eq!(after[4], 1, "reload counted");

    // `p90_us` sits between the existing p50/p99 order statistics.
    let reply = ask(&mut c, &obj([("cmd", "stats".into())]));
    let s = reply.get("stats").unwrap();
    let p50 = s.get("p50_us").and_then(Value::as_u64).unwrap();
    let p90 = s.get("p90_us").and_then(Value::as_u64).unwrap();
    let p99 = s.get("p99_us").and_then(Value::as_u64).unwrap();
    assert!(p50 <= p90 && p90 <= p99, "p50={p50} p90={p90} p99={p99}");

    // The metrics command returns Prometheus text exposition: parseable,
    // and carrying both serve-layer histograms and solver counters.
    let m = ask(&mut c, &obj([("cmd", "metrics".into())]));
    assert_eq!(m.get("ok").and_then(Value::as_bool), Some(true));
    let text = m.get("metrics").and_then(Value::as_str).unwrap();
    let samples = cla::obs::parse_exposition(text).unwrap();
    let have = |name: &str| samples.iter().any(|s| s.name == name);
    assert!(
        have("cla_serve_latency_us_bucket"),
        "missing latency buckets"
    );
    assert!(have("cla_serve_latency_us_count"), "missing latency count");
    assert!(
        have("cla_solve_passes_total"),
        "missing solver pass counter"
    );
    assert!(
        samples
            .iter()
            .any(|s| s.name == "cla_serve_latency_us_bucket"
                && s.labels.iter().any(|(k, v)| k == "cmd" && v == "points-to")),
        "latency histogram not labelled per command"
    );
    // The session's p50/p90/p99 order statistics are published as gauges
    // at scrape time, so a Prometheus scrape sees the same tail figures
    // that `stats` reports — no histogram-bucket estimation needed.
    let gauge = |name: &str| -> u64 {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("missing percentile gauge {name}"))
            .value as u64
    };
    let (g50, g90, g99) = (
        gauge("cla_serve_latency_p50_us"),
        gauge("cla_serve_latency_p90_us"),
        gauge("cla_serve_latency_p99_us"),
    );
    assert!(
        g50 <= g90 && g90 <= g99,
        "exposed percentile gauges out of order: {g50}/{g90}/{g99}"
    );

    server.stop();
    let _ = std::fs::remove_dir_all(dir);
}

/// Tentpole scenario for the fault-tolerance PR: a reload that fails —
/// here because the edited source no longer compiles — must leave the
/// last-good sealed snapshot serving answers, flag the session as
/// degraded, and recover automatically (no operator command) once the
/// fault is fixed and the backoff window has passed.
#[test]
fn degraded_reload_serves_last_good_and_recovers_automatically() {
    let (dir, paths) = write_sources(
        "degraded",
        &[
            ("a.c", "int x, y; int *p; void fa(void) { p = &x; }"),
            ("b.c", "extern int *p; int *q; void fb(void) { q = p; }"),
        ],
    );
    let files: Vec<&str> = paths.iter().map(String::as_str).collect();
    let session = Arc::new(
        Session::from_files_jobs(
            &OsFs,
            &files,
            &PpOptions::default(),
            &LowerOptions::default(),
            SolveOptions::default(),
            None,
            1,
        )
        .unwrap(),
    );
    // Tiny backoff so the automatic retry happens within the test.
    session.set_reload_backoff(
        std::time::Duration::from_millis(10),
        std::time::Duration::from_millis(50),
    );
    let socket = dir.join("degraded.sock");
    let server = cla::serve::serve(Arc::clone(&session), Some(Arc::new(OsFs)), &socket).unwrap();
    let mut c = UnixStream::connect(server.path()).unwrap();

    assert_eq!(
        target_names(&ask(&mut c, &points_to_req("q"))),
        BTreeSet::from(["x".to_string()])
    );
    let h = ask(&mut c, &obj([("cmd", "health".into())]));
    assert_eq!(h.get("health").and_then(Value::as_str), Some("ok"));

    // Break a.c so the recompile fails, then ask for a reload.
    std::fs::write(
        Path::new(&paths[0]),
        "int x; int *p; void fa(void) { p = &x;",
    )
    .unwrap();
    let reply = ask(&mut c, &obj([("cmd", "reload".into())]));
    assert_eq!(
        reply.get("ok").and_then(Value::as_bool),
        Some(false),
        "reload over a broken source must fail: {}",
        reply.encode()
    );

    // The last-good snapshot still answers, and the session says so.
    assert_eq!(
        target_names(&ask(&mut c, &points_to_req("q"))),
        BTreeSet::from(["x".to_string()]),
        "degraded session lost its last-good answers"
    );
    let h = ask(&mut c, &obj([("cmd", "health".into())]));
    assert_eq!(h.get("health").and_then(Value::as_str), Some("degraded"));
    assert!(
        h.get("last_error").and_then(Value::as_str).is_some(),
        "degraded health must carry the error: {}",
        h.encode()
    );
    let s = ask(&mut c, &obj([("cmd", "stats".into())]));
    let stats = s.get("stats").unwrap();
    assert_eq!(stats.get("degraded").and_then(Value::as_bool), Some(true));
    assert!(
        stats
            .get("reload_failures")
            .and_then(Value::as_u64)
            .unwrap()
            >= 1
    );
    assert!(stats.get("last_error").and_then(Value::as_str).is_some());

    // Fix the source (with a different graph, so recovery is observable),
    // wait out the backoff, and let an ordinary query trigger the retry.
    std::fs::write(
        Path::new(&paths[0]),
        "int x, y; int *p; void fa(void) { p = &y; }",
    )
    .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(60));
    let reply = ask(&mut c, &points_to_req("q"));
    assert_eq!(
        target_names(&reply),
        BTreeSet::from(["y".to_string()]),
        "recovered session must serve the fixed sources"
    );
    let h = ask(&mut c, &obj([("cmd", "health".into())]));
    assert_eq!(h.get("health").and_then(Value::as_str), Some("ok"));
    let s = ask(&mut c, &obj([("cmd", "stats".into())]));
    assert_eq!(
        s.get("stats")
            .unwrap()
            .get("degraded")
            .and_then(Value::as_bool),
        Some(false)
    );

    server.stop();
    let _ = std::fs::remove_dir_all(dir);
}

/// The same degraded-mode contract for a session serving a linked `.clao`
/// object directly: a corrupt rewrite is rejected by the checksum layer at
/// reload time, the last-good graph keeps answering, and restoring the
/// file brings the session back with an explicit reload.
#[test]
fn object_backed_session_survives_a_corrupt_rewrite() {
    let (dir, paths) = write_sources(
        "objpath",
        &[
            ("a.c", "int x; int *p; void fa(void) { p = &x; }"),
            ("b.c", "extern int *p; int *q; void fb(void) { q = p; }"),
        ],
    );
    let units: Vec<CompiledUnit> = paths
        .iter()
        .map(|p| {
            compile_file(&OsFs, p, &PpOptions::default(), &LowerOptions::default())
                .unwrap()
                .0
        })
        .collect();
    let (program, _) = link(&units, "a.out");
    let bytes = write_object(&program);
    let obj_path = dir.join("prog.clao");
    std::fs::write(&obj_path, &bytes).unwrap();

    let session = Arc::new(
        Session::open(&SessionSpec {
            source: SessionSource::Object {
                path: obj_path.clone(),
            },
            solve: SolveOptions::default(),
            snapshot_dir: None,
            jobs: 1,
        })
        .unwrap(),
    );
    let socket = dir.join("objpath.sock");
    let server = cla::serve::serve(Arc::clone(&session), None, &socket).unwrap();
    let mut c = UnixStream::connect(server.path()).unwrap();
    assert_eq!(
        target_names(&ask(&mut c, &points_to_req("q"))),
        BTreeSet::from(["x".to_string()])
    );

    // A torn write: only half the object makes it to disk.
    std::fs::write(&obj_path, &bytes[..bytes.len() / 2]).unwrap();
    let reply = ask(&mut c, &obj([("cmd", "reload".into())]));
    assert_eq!(
        reply.get("ok").and_then(Value::as_bool),
        Some(false),
        "reload of a truncated object must fail: {}",
        reply.encode()
    );
    assert_eq!(
        target_names(&ask(&mut c, &points_to_req("q"))),
        BTreeSet::from(["x".to_string()]),
        "last-good object answers survive the torn rewrite"
    );
    let h = ask(&mut c, &obj([("cmd", "health".into())]));
    assert_eq!(h.get("health").and_then(Value::as_str), Some("degraded"));

    // Restore the file; an explicit reload recovers even though the bytes
    // hash the same as the resident epoch (degraded forces the rebuild).
    std::fs::write(&obj_path, &bytes).unwrap();
    let reply = ask(&mut c, &obj([("cmd", "reload".into())]));
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(reply.get("relinked").and_then(Value::as_bool), Some(true));
    assert_eq!(
        target_names(&ask(&mut c, &points_to_req("q"))),
        BTreeSet::from(["x".to_string()])
    );
    let h = ask(&mut c, &obj([("cmd", "health".into())]));
    assert_eq!(h.get("health").and_then(Value::as_str), Some("ok"));

    server.stop();
    let _ = std::fs::remove_dir_all(dir);
}

/// Malformed requests are client mistakes, not attacks: both invalid UTF-8
/// and syntactically bad JSON must draw a typed error reply and leave the
/// connection usable for the next request.
#[test]
fn malformed_requests_get_typed_errors_and_keep_the_connection() {
    let (dir, paths) = write_sources(
        "malformed",
        &[
            ("a.c", "int x; int *p; void fa(void) { p = &x; }"),
            ("b.c", "extern int *p; int *q; void fb(void) { q = p; }"),
        ],
    );
    let server = start_server("malformed", &paths);
    let mut c = UnixStream::connect(server.path()).unwrap();

    // Invalid UTF-8.
    c.write_all(b"\xff\xfe\x80garbage\n").unwrap();
    let mut line = String::new();
    let mut reader = BufReader::new(c.try_clone().unwrap());
    reader.read_line(&mut line).unwrap();
    let v = parse(line.trim()).unwrap();
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(
        v.get("error").and_then(Value::as_str),
        Some("malformed request: invalid utf-8")
    );

    // Bad JSON on the same connection.
    c.write_all(b"{this is not json\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let v = parse(line.trim()).unwrap();
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
    let err = v.get("error").and_then(Value::as_str).unwrap();
    assert!(
        err.starts_with("malformed request:"),
        "unexpected error text: {err}"
    );

    // The connection is still live and answers a real query.
    let reply = ask(&mut c, &points_to_req("q"));
    assert_eq!(
        target_names(&reply),
        BTreeSet::from(["x".to_string()]),
        "connection died after a malformed request"
    );
    server.stop();
    let _ = std::fs::remove_dir_all(dir);
}

/// A query that panics must take down only its own connection: the reply
/// names the failure, the socket closes, and other clients (and the accept
/// loop) keep working.
#[test]
fn query_panic_kills_one_connection_not_the_server() {
    let (dir, paths) = write_sources(
        "panic",
        &[
            ("a.c", "int x; int *p; void fa(void) { p = &x; }"),
            ("b.c", "extern int *p; int *q; void fb(void) { q = p; }"),
        ],
    );
    let files: Vec<&str> = paths.iter().map(String::as_str).collect();
    let session = Session::from_files_jobs(
        &OsFs,
        &files,
        &PpOptions::default(),
        &LowerOptions::default(),
        SolveOptions::default(),
        None,
        1,
    )
    .unwrap();
    // The server's own seam: a `Listener` running `serve_connection` per
    // connection, with a dispatch that panics on one marker command and
    // answers every other line through `handle_request`.
    let session = Arc::new(session);
    let socket = dir.join("panic.sock");
    let shutdown = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut listener = cla::serve::Listener::spawn(
        std::os::unix::net::UnixListener::bind(&socket).unwrap(),
        Arc::clone(&shutdown),
        None,
        {
            let shutdown = Arc::clone(&shutdown);
            move |mut reader, mut writer| {
                let opts = cla::serve::ServeOptions::default();
                cla::serve::serve_connection(
                    &mut reader,
                    &mut writer,
                    &shutdown,
                    &opts,
                    || {},
                    |line| {
                        if line.contains("poison") {
                            panic!("injected query panic");
                        }
                        cla::serve::handle_request(&session, None, line, &shutdown, &opts)
                    },
                    || {},
                );
            }
        },
    )
    .unwrap();

    let mut victim = UnixStream::connect(&socket).unwrap();
    let mut bystander = UnixStream::connect(&socket).unwrap();
    let _ = ask(&mut bystander, &points_to_req("q"));

    let reply = ask(&mut victim, &obj([("cmd", "poison".into())]));
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(
        reply.get("error").and_then(Value::as_str),
        Some("internal error: query panicked")
    );
    // The poisoned connection is closed...
    let mut rest = String::new();
    let n = BufReader::new(victim.try_clone().unwrap())
        .read_line(&mut rest)
        .unwrap();
    assert_eq!(n, 0, "victim connection must be closed, got {rest:?}");

    // ...but the bystander and fresh connections still get answers.
    assert_eq!(
        target_names(&ask(&mut bystander, &points_to_req("q"))),
        BTreeSet::from(["x".to_string()])
    );
    let mut fresh = UnixStream::connect(&socket).unwrap();
    assert_eq!(
        target_names(&ask(&mut fresh, &points_to_req("q"))),
        BTreeSet::from(["x".to_string()])
    );
    listener.stop();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn depend_over_socket_matches_in_process() {
    let (dir, paths) = write_sources(
        "depend",
        &[(
            "a.c",
            "short base; int d1, d2; void f(void) { d1 = base; d2 = d1; }",
        )],
    );
    let server = start_server("depend", &paths);
    let mut c = UnixStream::connect(server.path()).unwrap();
    let reply = ask(
        &mut c,
        &obj([("cmd", "depend".into()), ("target", "base".into())]),
    );
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true));
    let names: BTreeSet<&str> = reply
        .get("dependents")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .filter_map(|d| d.get("name").and_then(Value::as_str))
        .collect();
    assert!(
        names.contains("d1") && names.contains("d2"),
        "got {names:?}"
    );
    server.stop();
    let _ = std::fs::remove_dir_all(dir);
}
