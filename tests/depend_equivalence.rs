//! The dependence walk gives the answers it gave before it had an index.
//!
//! (a) `render_report` over three programs, pinned to the text the
//! overlay-per-query walk produced at the commit before `FlowIndex`
//! existed: costs, best-chain parents and rendered chains, not only the
//! dependent sets. A pin may only be re-taken from that older walk.
//! (b) An oracle that shares nothing with the walk — the deductive
//! solver's relation, breadth-first reachability, Bellman–Ford costs — on
//! random small programs, over a `PointsTo` and over a `SealedGraph`.
//! (c) The index through a `Session`: one per epoch, built once however
//! many queries race for it, gone after a reload, and a typed error — not
//! a panic — when a block it has to read is damaged.

use cla::cladb::fnv64;
use cla::core::{deductive, PointsToQuery, Warm};
use cla::depend::{ChainCost, DependReport};
use cla::prelude::*;
use cla::serve::json::{obj, Value};
use cla::serve::SessionError;
use cla::workload::SplitMix64;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::{Arc, Barrier, Mutex};

fn analyze_all(fs: &MemoryFs, files: &[String]) -> Analysis {
    let refs: Vec<&str> = files.iter().map(String::as_str).collect();
    analyze(fs, &refs, &PipelineOptions::default()).unwrap()
}

fn example_program() -> Analysis {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/c");
    let mut fs = MemoryFs::new();
    for name in ["main.c", "store.c", "prog.h"] {
        fs.add(name, std::fs::read_to_string(dir.join(name)).unwrap());
    }
    analyze_all(&fs, &["main.c".to_string(), "store.c".to_string()])
}

fn ci_small_program() -> Analysis {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("profiles/ci-small.toml");
    let profile = Profile::load(&path).unwrap();
    let (mut fs, mut files) = (MemoryFs::new(), Vec::new());
    generate_with(&profile, profile.seed, &mut |name, text| {
        fs.add(name, text);
        if name.ends_with(".c") {
            files.push(name.to_string());
        }
        Ok(())
    })
    .unwrap();
    analyze_all(&fs, &files)
}

fn nethack_program() -> Analysis {
    let w = generate(
        by_name("nethack").unwrap(),
        &GenOptions {
            scale: 0.2,
            files: 4,
            seed: 1,
            ..Default::default()
        },
    );
    let mut fs = MemoryFs::new();
    for (p, c) in &w.files {
        fs.add(p.clone(), c.clone());
    }
    let files: Vec<String> = w.source_files().iter().map(|s| s.to_string()).collect();
    analyze_all(&fs, &files)
}

/// `render_report`'s lines, checked to be in `(cost, name)` order. The
/// overlay walk left dependents that tie on both — same-named locals of
/// different functions — in `HashMap` iteration order, so its report was
/// not reproducible run to run; ties are ordered by their text here.
fn report_lines<P: PointsToQuery>(
    db: &Database,
    dep: &DependenceAnalysis<'_, P>,
    report: &DependReport,
) -> String {
    let mut lines: Vec<(ChainCost, &str, String)> = report
        .dependents()
        .iter()
        .map(|d| {
            let chain = dep.render_chain(report, d.obj);
            (d.cost, db.object(d.obj).name.as_str(), chain)
        })
        .collect();
    assert!(
        lines.is_sorted_by_key(|l| (l.0, l.1)),
        "report out of order"
    );
    lines.sort();
    let rendered = dep.render_report(report);
    let mut text = String::new();
    for (cost, _, chain) in &lines {
        let line = format!(
            "[{} w={} len={}] {chain}\n",
            cost.strength(),
            cost.weak_links,
            cost.length
        );
        assert!(rendered.contains(&line), "render_report lacks {line}");
        text.push_str(&line);
    }
    assert_eq!(text.len(), rendered.len(), "render_report has other lines");
    text
}

/// Every `stride`-th target name in sorted order, each asked with no
/// non-targets and with its own most important dependent as the one
/// non-target (the target itself when it has none). Returns the digest of
/// all rendered reports and how many dependents they listed.
fn report_digest(a: &Analysis, stride: usize) -> (u64, usize) {
    let mut names: Vec<&str> = a.database.target_names().collect();
    names.sort_unstable();
    let dep = DependenceAnalysis::new(&a.database, &a.points_to);
    let (mut text, mut listed) = (String::new(), 0);
    for name in names.into_iter().step_by(stride) {
        let all = dep.analyze(name, &DependOptions::default()).unwrap();
        let blocked = all
            .dependents()
            .first()
            .map_or(name, |d| a.database.object(d.obj).name.as_str());
        let pruned = dep
            .analyze(
                name,
                &DependOptions {
                    non_targets: vec![blocked.to_string()],
                },
            )
            .unwrap();
        listed += all.dependents().len() + pruned.dependents().len();
        text.push_str(&format!(
            "== {name}\n{}-- without {blocked}\n{}",
            report_lines(&a.database, &dep, &all),
            report_lines(&a.database, &dep, &pruned)
        ));
    }
    (fnv64(text.as_bytes()), listed)
}

#[test]
fn rendered_reports_match_the_pins_of_the_overlay_walk() {
    let mut wrong = Vec::new();
    for (label, program, stride, want) in [
        (
            "examples/c",
            example_program(),
            1,
            (0x74d3_4573_8b95_aeac_u64, 14_usize),
        ),
        (
            "ci-small",
            ci_small_program(),
            97,
            (0xb472_f97e_90b1_0f53, 2618),
        ),
        (
            "nethack@0.2",
            nethack_program(),
            53,
            (0xe892_42d9_e517_0234, 1021),
        ),
    ] {
        let got = report_digest(&program, stride);
        if got != want {
            wrong.push(format!("{label}: ({:#018x}, {})", got.0, got.1));
        }
    }
    assert!(
        wrong.is_empty(),
        "(digest, dependents listed) moved: {wrong:#?}"
    );
}

/// A function of ints and `int *`s: copies (some through a weak or a
/// strong operator), address-ofs, stores, loads and store-loads.
fn random_program(rng: &mut SplitMix64) -> (String, usize) {
    let ints = rng.random_range(3..9usize);
    let ptrs = rng.random_range(1..5usize);
    let list = |prefix: &str, n: usize| -> String {
        let names: Vec<String> = (0..n).map(|i| format!("{prefix}{i}")).collect();
        names.join(", ")
    };
    let mut src = format!(
        "int {};\nint {};\nvoid f(void) {{\n",
        list("v", ints),
        list("*p", ptrs)
    );
    for _ in 0..rng.random_range(6..28usize) {
        let (v, w) = (rng.random_range(0..ints), rng.random_range(0..ints));
        let (p, q) = (rng.random_range(0..ptrs), rng.random_range(0..ptrs));
        src.push_str(&match rng.random_range(0..10u32) {
            0 | 1 => format!("  v{v} = v{w};\n"),
            2 => format!("  v{v} = v{w} >> 1;\n"),
            3 => format!("  v{v} = v{w} + 1;\n"),
            4 | 5 => format!("  p{p} = &v{v};\n"),
            6 => format!("  p{p} = p{q};\n"),
            7 => format!("  *p{p} = v{v};\n"),
            8 => format!("  v{v} = *p{p};\n"),
            _ => format!("  *p{p} = *p{q};\n"),
        });
    }
    src.push_str("}\n");
    (src, ints)
}

/// `(weak links, length)` of the best chain to every object reachable from
/// `targets` without entering `blocked`, the slow way.
fn oracle_dependents(
    unit: &CompiledUnit,
    relation: &PointsTo,
    targets: &[ObjId],
    blocked: &[ObjId],
) -> BTreeMap<ObjId, (u32, u32)> {
    // Every assignment as the value-flow edges it stands for.
    let mut edges: Vec<(ObjId, ObjId, bool)> = Vec::new();
    for a in &unit.assigns {
        let weak = a.strength == Strength::Weak;
        let (through_dst, through_src) = (relation.points_to(a.dst), relation.points_to(a.src));
        match a.kind {
            AssignKind::Addr => {}
            AssignKind::Copy => edges.push((a.src, a.dst, weak)),
            AssignKind::Store => edges.extend(through_dst.iter().map(|&v| (a.src, v, weak))),
            AssignKind::Load => edges.extend(through_src.iter().map(|&w| (w, a.dst, weak))),
            AssignKind::StoreLoad => {
                for &w in through_src {
                    edges.extend(through_dst.iter().map(|&v| (w, v, weak)));
                }
            }
        }
    }
    edges.retain(|(from, to, _)| !blocked.contains(from) && !blocked.contains(to));

    let seeds = targets.iter().copied().filter(|t| !blocked.contains(t));
    let mut reachable: BTreeSet<ObjId> = seeds.clone().collect();
    let mut frontier: Vec<ObjId> = reachable.iter().copied().collect();
    while let Some(o) = frontier.pop() {
        for &(from, to, _) in &edges {
            if from == o && reachable.insert(to) {
                frontier.push(to);
            }
        }
    }

    let mut cost: BTreeMap<ObjId, (u32, u32)> = seeds.map(|t| (t, (0, 0))).collect();
    loop {
        let mut moved = false;
        for &(from, to, weak) in &edges {
            let Some(&(w, len)) = cost.get(&from) else {
                continue;
            };
            let next = (w + u32::from(weak), len + 1);
            if reachable.contains(&from) && cost.get(&to).is_none_or(|&c| next < c) {
                cost.insert(to, next);
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
    let reached: BTreeSet<ObjId> = cost.keys().copied().collect();
    assert_eq!(reached, reachable, "Bellman-Ford and BFS disagree");
    cost.retain(|o, _| !targets.contains(o));
    cost
}

fn walk_dependents<P: PointsToQuery>(
    dep: &DependenceAnalysis<'_, P>,
    target: &str,
    opts: &DependOptions,
) -> BTreeMap<ObjId, (u32, u32)> {
    let report = dep.try_analyze(target, opts).unwrap().unwrap();
    report
        .dependents()
        .iter()
        .map(|d| (d.obj, (d.cost.weak_links, d.cost.length)))
        .collect()
}

#[test]
fn index_walk_equals_an_independent_oracle_on_random_programs() {
    let mut rng = SplitMix64::seed_from_u64(0xf10e_1de5);
    let (mut asked, mut found) = (0, 0);
    for case in 0..64 {
        let (src, ints) = random_program(&mut rng);
        let mut fs = MemoryFs::new();
        fs.add("r.c", src.clone());
        let a = analyze_all(&fs, &["r.c".to_string()]);
        let unit = a.database.to_unit().unwrap();
        let relation = deductive::solve_oracle(&unit);
        let sealed = Warm::from_database(&a.database, SolveOptions::default()).seal();
        let over_pts = DependenceAnalysis::new(&a.database, &a.points_to);
        let over_sealed = DependenceAnalysis::new(&a.database, &sealed);
        for v in 0..ints {
            let target = format!("v{v}");
            let other = format!("v{}", rng.random_range(0..ints));
            for non_targets in [vec![], vec![other]] {
                let blocked: Vec<ObjId> = non_targets
                    .iter()
                    .flat_map(|n| a.database.targets(n).iter().copied())
                    .collect();
                let want =
                    oracle_dependents(&unit, &relation, a.database.targets(&target), &blocked);
                let opts = DependOptions { non_targets };
                for (route, got) in [
                    ("PointsTo", walk_dependents(&over_pts, &target, &opts)),
                    ("SealedGraph", walk_dependents(&over_sealed, &target, &opts)),
                ] {
                    assert_eq!(
                        got, want,
                        "case {case}, {target} {opts:?} over {route}:\n{src}"
                    );
                }
                asked += 1;
                found += want.len();
            }
        }
    }
    assert!(
        asked > 300 && found > asked,
        "{asked} queries, {found} dependents"
    );
}

/// Tests that open a `Session` take this: the index-build and query-panic
/// counters they read are process-wide.
static SESSIONS: Mutex<()> = Mutex::new(());

fn counter(name: &str) -> u64 {
    cla::obs::global().counter(name).get()
}

fn dependent_names(session: &Session, target: &str) -> Vec<String> {
    let answer = session.depend(target, &[]).unwrap();
    answer.dependents.iter().map(|d| d.name.clone()).collect()
}

#[test]
fn a_session_builds_one_index_per_epoch_and_drops_it_on_reload() {
    let _sessions = SESSIONS.lock().unwrap();
    let before = "int target, y; void f(void) { y = target; }\n";
    let mut fs = MemoryFs::new();
    fs.add("a.c", before);
    let session = Arc::new(
        Session::from_files_jobs(
            &fs,
            &["a.c"],
            &PpOptions::default(),
            &LowerOptions::default(),
            SolveOptions::default(),
            None,
            1,
        )
        .unwrap(),
    );
    assert_eq!(session.flow_index_size(), None, "nothing asked depend yet");

    // Eight first queries of the epoch at once: one build, eight answers.
    let builds = counter("cla_depend_index_builds_total");
    let barrier = Barrier::new(8);
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                barrier.wait();
                assert_eq!(dependent_names(&session, "target"), ["y"]);
            });
        }
    });
    assert_eq!(counter("cla_depend_index_builds_total"), builds + 1);
    let (edges, bytes) = session.flow_index_size().unwrap();
    assert!(
        edges >= 1 && bytes >= edges * 16,
        "{edges} edges, {bytes} bytes"
    );
    let stats = session.stats().to_json();
    assert_eq!(
        stats.get("flow_index_edges").and_then(Value::as_u64),
        Some(edges as u64)
    );

    // A reload takes the index away with the epoch it described.
    fs.add(
        "a.c",
        format!("{before}int y2; void g(void) {{ y2 = target; }}\n"),
    );
    assert!(session.reload(Some(&fs), false).unwrap().relinked);
    assert_eq!(session.flow_index_size(), None, "stale index survived");
    assert_eq!(dependent_names(&session, "target"), ["y", "y2"]);
    assert_eq!(counter("cla_depend_index_builds_total"), builds + 2);
}

/// The object file of a program whose int-only half the solver never
/// loads, with one byte flipped inside the block of `t`.
fn object_with_a_damaged_block() -> Database {
    let unit = compile_source(
        "int t, a, b; int x, *p, *q; void f(void) { a = t; b = a; p = &x; q = p; }",
        "a.c",
        &LowerOptions::default(),
    )
    .unwrap();
    let bytes = write_object(&unit);
    // `Database::open` verifies everything but the dynamic blocks, which
    // sit at the end of the file and are verified on first fetch.
    for pos in (0..bytes.len()).rev() {
        let mut damaged = bytes.clone();
        damaged[pos] ^= 0x04;
        let Ok(db) = Database::open(damaged) else {
            continue;
        };
        let fetch = |name: &str| db.block(db.targets(name)[0]);
        if fetch("t").is_err() && ["a", "x", "p", "q"].iter().all(|n| fetch(n).is_ok()) {
            return db;
        }
    }
    panic!("no flip landed in the block of `t` alone");
}

#[test]
fn a_damaged_block_is_a_typed_error_on_the_wire_not_a_panic() {
    let _sessions = SESSIONS.lock().unwrap();
    let panics = counter("cla_serve_query_panics_total");
    // The solver never fetches `t`'s block, so the session opens.
    let session = Session::from_database(object_with_a_damaged_block(), SolveOptions::default());
    match session.depend("t", &[]) {
        Err(SessionError::Db(e)) => assert!(e.to_string().contains("checksum"), "{e}"),
        other => panic!("expected a database error, got {other:?}"),
    }

    let socket = std::env::temp_dir().join(format!("cla-depend-eq-{}.sock", std::process::id()));
    let server = cla::serve::serve(Arc::new(session), None, &socket).unwrap();
    let mut client = Client::connect(&Endpoint::Unix(server.path().to_path_buf())).unwrap();
    let reply = client
        .request(&obj([("cmd", "depend".into()), ("target", "t".into())]))
        .unwrap();
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(false));
    let error = reply.get("error").and_then(Value::as_str).unwrap();
    assert!(error.contains("checksum"), "{error}");
    // Same connection, next request: answered.
    let reply = client
        .request(&obj([("cmd", "points-to".into()), ("var", "q".into())]))
        .unwrap();
    assert_eq!(
        reply.get("ok").and_then(Value::as_bool),
        Some(true),
        "{reply:?}"
    );
    assert_eq!(
        reply.get("targets").and_then(Value::as_arr).unwrap().len(),
        1
    );
    server.stop();
    assert_eq!(counter("cla_serve_query_panics_total"), panics);
}
