//! End-to-end tests of the `cla-tool` command-line driver, run against the
//! real binary with real files on disk.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, ExitStatus, Output, Stdio};

fn tool() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cla-tool"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cla-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write(dir: &Path, name: &str, contents: &str) -> String {
    let p = dir.join(name);
    std::fs::write(&p, contents).unwrap();
    p.to_string_lossy().into_owned()
}

fn run(cmd: &mut Command) -> Output {
    let out = cmd.output().expect("tool runs");
    assert!(
        out.status.success(),
        "tool failed: {}\nstdout: {}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn compile_solve_depend_roundtrip() {
    let dir = tmpdir("roundtrip");
    let a = write(
        &dir,
        "a.c",
        "int shared; int *p;\nvoid fa(void) { p = &shared; }\n",
    );
    let b = write(
        &dir,
        "b.c",
        "extern int *p; int *q; short src, dst;\nvoid fb(void) { q = p; dst = src; }\n",
    );
    let obj = dir.join("prog.clao").to_string_lossy().into_owned();

    run(tool().args(["compile", &a, &b, "-o", &obj]));
    assert!(std::fs::metadata(&obj).unwrap().len() > 100);

    // Dump shows the Figure 4 sections.
    let out = run(tool().args(["dump", &obj]));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("static section"), "{text}");
    assert!(text.contains("dynamic section"), "{text}");
    assert!(text.contains("p = &shared"), "{text}");

    // Solve prints the points-to set of q.
    let out = run(tool().args(["solve", &obj, "--print", "q"]));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("pts(q) = {shared}"), "{text}");
    assert!(text.contains("pointer-variables=2"), "{text}");

    // All three solvers run.
    for solver in ["pretransitive", "worklist", "steensgaard"] {
        let out = run(tool().args(["solve", &obj, "--solver", solver]));
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(text.contains(&format!("solver={solver}")), "{text}");
    }

    // Dependence query, flat and as a chain tree.
    let out = run(tool().args(["depend", &obj, "--target", "src"]));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("dst/short"), "{text}");
    let out = run(tool().args(["depend", &obj, "--target", "src", "--tree"]));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.lines().any(|l| l.starts_with("src/short")), "{text}");
    assert!(text.lines().any(|l| l.starts_with("  dst/short")), "{text}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compile_with_includes_and_defines() {
    let dir = tmpdir("includes");
    std::fs::create_dir_all(dir.join("inc")).unwrap();
    write(&dir, "inc/cfg.h", "#define WIDTH TYPE\n");
    let m = write(
        &dir,
        "m.c",
        "#include <cfg.h>\nWIDTH x; WIDTH *ptr;\nvoid f(void) { ptr = &x; }\n",
    );
    let obj = dir.join("m.clao").to_string_lossy().into_owned();
    let inc = dir.join("inc").to_string_lossy().into_owned();
    run(tool().args(["compile", &m, "-o", &obj, "-I", &inc, "-D", "TYPE=long"]));
    let out = run(tool().args(["solve", &obj, "--print", "ptr"]));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("pts(ptr) = {x}"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ctx_transform() {
    let dir = tmpdir("ctx");
    let src = write(
        &dir,
        "c.c",
        "int x, y;
int *id(int *a) { return a; }
int *r1, *r2;
void main_(void) {
  r1 = id(&x);
  r2 = id(&y);
}
",
    );
    let obj = dir.join("c.clao").to_string_lossy().into_owned();
    let dup = dir.join("dup.clao").to_string_lossy().into_owned();
    run(tool().args(["compile", &src, "-o", &obj]));

    // Context-insensitive: r1 sees both.
    let out = run(tool().args(["solve", &obj, "--print", "r1"]));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("pts(r1) = {x, y}"), "{text}");

    // After duplication: r1 sees only x.
    run(tool().args(["ctx", &obj, "-k", "2", "-o", &dup]));
    let out = run(tool().args(["solve", &dup, "--print", "r1", "r2"]));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("pts(r1) = {x}"), "{text}");
    assert!(text.contains("pts(r2) = {y}"), "{text}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The observability surface: `analyze --trace --metrics` over the bundled
/// example program yields a validating trace and Prometheus text carrying
/// counters from every layer.
#[test]
fn analyze_records_trace_and_metrics() {
    let dir = tmpdir("obs");
    let examples = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/c");
    let main_c = examples.join("main.c").to_string_lossy().into_owned();
    let store_c = examples.join("store.c").to_string_lossy().into_owned();
    let inc = examples.to_string_lossy().into_owned();
    let trace = dir.join("trace.json").to_string_lossy().into_owned();

    let out = run(tool().args([
        "analyze",
        &main_c,
        &store_c,
        "-I",
        &inc,
        "--trace",
        &trace,
        "--metrics",
        "--print",
        "latest",
    ]));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("pts(latest) = {first, second}"), "{text}");
    // The phase line is split further for the link, by the spans' names.
    let phases = text.lines().find(|l| l.starts_with("link-phases: "));
    let phases = phases.unwrap_or_else(|| panic!("no link split in:\n{text}"));
    for phase in ["symbols=", "merge=", "assemble=", "open="] {
        assert!(phases.contains(phase), "{phases}");
    }
    // Prometheus text follows the report: layer counters are all present.
    for metric in [
        "cla_front_files_total 2",
        "cla_db_assigns_loaded_total",
        "cla_db_section_bytes_written_total{section=",
        "cla_solve_passes_total",
    ] {
        assert!(text.contains(metric), "missing `{metric}` in:\n{text}");
    }

    // The recorded trace passes the bundled validator...
    let out = run(tool().args(["trace-validate", &trace]));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.starts_with("trace OK:"), "{text}");

    // ...and is the streaming Chrome format: `[` header, JSONL events.
    let raw = std::fs::read_to_string(&trace).unwrap();
    assert!(raw.starts_with("[\n"), "not a streaming trace array");
    assert!(raw.contains("\"ph\":\"B\"") && raw.contains("\"ph\":\"E\""));
    for span in ["link.symbols", "link.merge", "link.assemble", "db.open"] {
        assert!(raw.contains(&format!("\"name\":\"{span}\"")), "{span}");
    }

    // A corrupted trace makes the validator exit non-zero.
    let bad = write(
        &dir,
        "bad.json",
        "[\n{\"name\":\"x\",\"ph\":\"E\",\"ts\":1,\"tid\":0},\n",
    );
    let out = tool().args(["trace-validate", &bad]).output().unwrap();
    assert!(
        !out.status.success(),
        "validator accepted an orphan E event"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The fault-injection battery runs from the CLI over both a compiled
/// `.clao` and raw C sources, finds no integrity holes, and is seeded —
/// two runs with the same seed print identical reports.
#[test]
fn db_fuzz_smoke_over_example_sources() {
    let dir = tmpdir("fuzz");
    let examples = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/c");
    let main_c = examples.join("main.c").to_string_lossy().into_owned();
    let store_c = examples.join("store.c").to_string_lossy().into_owned();
    let inc = examples.to_string_lossy().into_owned();

    // From C sources, compiled and linked in-memory.
    let out = run(tool().args([
        "db-fuzz", &main_c, &store_c, "-I", &inc, "--iters", "50", "--seed", "1",
    ]));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        text.contains("0 wrong, 0 panicked"),
        "fuzz report reported holes:\n{text}"
    );

    // From a .clao on disk; same seed twice gives byte-identical reports.
    let obj = dir.join("fuzz.clao").to_string_lossy().into_owned();
    run(tool().args(["compile", &main_c, &store_c, "-I", &inc, "-o", &obj]));
    let a = run(tool().args(["db-fuzz", &obj, "--iters", "40", "--seed", "7"]));
    let b = run(tool().args(["db-fuzz", &obj, "--iters", "40", "--seed", "7"]));
    assert_eq!(a.stdout, b.stdout, "db-fuzz is not deterministic");

    // A pristine input that does not decode is a hard error, not a report.
    let bad = write(&dir, "bad.clao", "this is not an object file");
    let out = tool()
        .args(["db-fuzz", &bad, "--iters", "1"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "db-fuzz accepted a garbage oracle");

    let _ = std::fs::remove_dir_all(&dir);
}

/// `--profile` runs the sampling profiler over the whole command: the
/// collapsed-stack file is written, the per-span table lands on stderr, and
/// a combined `--trace` + `--profile` run still validates (sample events
/// ride in the same streaming trace).
#[test]
fn analyze_with_profile_writes_collapsed_stacks() {
    let dir = tmpdir("prof");
    // A source big enough that compilation takes many sampler ticks even in
    // debug builds.
    let mut src = String::new();
    for i in 0..1500 {
        src.push_str(&format!(
            "int x{i}; int *p{i}; void f{i}(void) {{ p{i} = &x{i}; }}\n"
        ));
    }
    let big = write(&dir, "big.c", &src);
    let collapsed = dir.join("prof.collapsed").to_string_lossy().into_owned();
    let trace = dir.join("prof_trace.json").to_string_lossy().into_owned();

    let out = run(tool().args(["analyze", &big, "--profile", &collapsed, "--trace", &trace]));
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        err.contains("profile:"),
        "no profile summary on stderr: {err}"
    );
    assert!(err.contains("span"), "no span table on stderr: {err}");

    // Collapsed format: `name(;name)* weight` per line, flamegraph.pl-ready.
    let text = std::fs::read_to_string(&collapsed).unwrap();
    assert!(!text.is_empty(), "empty collapsed profile");
    for line in text.lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("stack + weight");
        assert!(!stack.is_empty(), "bad line: {line}");
        weight
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("bad weight: {line}"));
    }
    assert!(
        text.lines()
            .any(|l| l.starts_with("pipeline.compile") || l.starts_with("compile_file")),
        "no compile attribution in:\n{text}"
    );

    // The trace recorded alongside the profiler still validates, and the
    // validator counts its sample events.
    let out = run(tool().args(["trace-validate", &trace]));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("profiler samples"), "{text}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// `bench-diff` is the perf-regression gate: identical reports pass, an
/// inflated phase fails naming the phase, and `--history` appends one
/// JSONL line per invocation.
#[test]
fn bench_diff_gates_on_phase_regressions() {
    let dir = tmpdir("benchdiff");
    let old = write(
        &dir,
        "old.json",
        r#"{"profile":"smoke","compile_secs":4.0,"link_secs":1.0,"solve_secs":0.5,"peak_rss_bytes":1000000}"#,
    );

    // Same file twice: zero regressions, exit 0.
    let out = run(tool().args(["bench-diff", &old, &old, "--ceiling", "15"]));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("bench-diff OK"), "{text}");

    // One phase 20% slower: nonzero exit, and the message names the phase.
    let new = write(
        &dir,
        "new.json",
        r#"{"profile":"smoke","compile_secs":4.8,"link_secs":1.0,"solve_secs":0.5,"peak_rss_bytes":1000000}"#,
    );
    let history = dir.join("hist.jsonl").to_string_lossy().into_owned();
    let out = tool()
        .args([
            "bench-diff",
            &old,
            &new,
            "--ceiling",
            "15",
            "--history",
            &history,
        ])
        .output()
        .unwrap();
    assert!(
        !out.status.success(),
        "20% compile regression passed the gate"
    );
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("compile_secs"), "regression unnamed: {err}");
    assert!(!err.contains("link_secs"), "steady phase blamed: {err}");

    // The same slowdown clears a 25% ceiling.
    run(tool().args([
        "bench-diff",
        &old,
        &new,
        "--ceiling",
        "25",
        "--history",
        &history,
    ]));

    // Both runs appended to the ledger, regression or not.
    let hist = std::fs::read_to_string(&history).unwrap();
    assert_eq!(hist.lines().count(), 2, "history: {hist}");
    for line in hist.lines() {
        assert!(line.contains(r#""label":"smoke""#), "history: {line}");
        assert!(line.contains("compile_secs"), "history: {line}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_resealed_object_with_bad_references_is_a_typed_error_not_a_solver_panic() {
    // Every checksum in these files is valid — `write_object` computed them
    // over the damage — so only the range checks behind `load_database`
    // stand between the ids and an out-of-bounds index in the solver.
    use cla::prelude::*;
    let dir = tmpdir("resealed");
    let src = "int x, y, *p, **pp; int *id(int *v) { return v; }
               void f(void) { p = &x; pp = &p; *pp = &y; y = x; p = id(*pp); }";
    let pristine = compile_source(src, "a.c", &LowerOptions::default()).unwrap();
    let past = ObjId(pristine.objects.len() as u32 + 3);
    let first = |unit: &CompiledUnit, kind| unit.assigns.iter().position(|a| a.kind == kind);
    type Damage<'a> = &'a dyn Fn(&mut CompiledUnit);
    let cases: [(&str, Damage); 5] = [
        ("funsig-param", &|u| u.funsigs[0].params.push(past)),
        ("in-func", &|u| u.objects[1].in_func = Some(past)),
        ("addr-dst", &|u| {
            let at = first(u, AssignKind::Addr).unwrap();
            u.assigns[at].dst = past;
        }),
        ("copy-dst", &|u| {
            let at = first(u, AssignKind::Copy).unwrap();
            u.assigns[at].dst = past;
        }),
        ("loc-file", &|u| {
            u.assigns[0].loc.file = cla::ir::FileIdx(40)
        }),
    ];
    for (name, damage) in cases {
        let mut unit = pristine.clone();
        damage(&mut unit);
        let obj = dir.join(format!("{name}.clao"));
        std::fs::write(&obj, write_object(&unit)).unwrap();
        let obj = obj.to_string_lossy().into_owned();
        for cmd in ["solve", "depend", "dump"] {
            let out = tool().args([cmd, &obj, "--target", "x"]).output().unwrap();
            let err = String::from_utf8_lossy(&out.stderr).into_owned();
            assert_eq!(out.status.code(), Some(1), "{cmd} {name}: {err}");
            assert!(
                err.contains(&format!("`{obj}`: corrupt CLA object file")),
                "{cmd} {name}: {err}"
            );
            assert!(!err.contains("panicked"), "{cmd} {name}: {err}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_save_admits_the_object_it_solves() {
    // `snapshot-save` solves its `.clao` like `solve` does, so it admits it
    // the same way. Opened without `verify_all`, these two resealed objects
    // reached the solver and panicked there.
    use cla::prelude::*;
    let dir = tmpdir("snapshot-save-resealed");
    let src = "int x, y, *p, **pp; int *id(int *v) { return v; }
               void f(void) { p = &x; pp = &p; *pp = &y; y = x; p = id(*pp); }";
    let pristine = compile_source(src, "a.c", &LowerOptions::default()).unwrap();
    let past = ObjId(pristine.objects.len() as u32 + 3);
    type Damage<'a> = &'a dyn Fn(&mut CompiledUnit);
    let cases: [(&str, Damage); 2] = [
        ("copy-dst", &|u| {
            let at = u.assigns.iter().position(|a| a.kind == AssignKind::Copy);
            u.assigns[at.unwrap()].dst = past;
        }),
        ("loc-file", &|u| {
            u.assigns[0].loc.file = cla::ir::FileIdx(40)
        }),
    ];
    let snap = dir.join("out.clasnap").to_string_lossy().into_owned();
    for (name, damage) in cases {
        let mut unit = pristine.clone();
        damage(&mut unit);
        let obj = dir.join(format!("{name}.clao"));
        std::fs::write(&obj, write_object(&unit)).unwrap();
        let obj = obj.to_string_lossy().into_owned();
        let out = tool()
            .args(["snapshot-save", &obj, "-o", &snap])
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(1), "{name}: {err}");
        assert!(
            err.contains(&format!("`{obj}`: corrupt CLA object file")),
            "{name}: {err}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `cla-tool serve` or `cla-tool hub` child, killed if the test ends
/// before a `shutdown` query stopped it.
struct Server {
    child: Child,
    /// Its stderr after the banner, held open so later writes still land.
    stderr: BufReader<ChildStderr>,
    /// Every stderr line up to and including the "serving" one.
    banner: Vec<String>,
}

impl Server {
    /// Starts the tool and waits until it says it is serving.
    fn start(args: &[&str]) -> Server {
        let mut child = tool()
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("tool starts");
        let stderr = BufReader::new(child.stderr.take().unwrap());
        let mut server = Server {
            child,
            stderr,
            banner: Vec::new(),
        };
        let mut line = String::new();
        while server.stderr.read_line(&mut line).unwrap() > 0 {
            server.banner.push(line.trim_end().to_string());
            line.clear();
            if server.banner.last().unwrap().contains(" serving ") {
                return server;
            }
        }
        panic!("{args:?} never served: {:?}", server.banner);
    }

    /// The `HOST:PORT` a hub reported it bound.
    fn hub_addr(&self) -> String {
        let last = self.banner.last().unwrap();
        let at = last.split(" on ").nth(1).and_then(|s| s.split(' ').next());
        at.unwrap_or_else(|| panic!("no address in {last:?}"))
            .to_string()
    }

    /// Waits for the exit a `shutdown` query asked for.
    fn wait(mut self) -> ExitStatus {
        let mut rest = String::new();
        let _ = std::io::Read::read_to_string(&mut self.stderr, &mut rest);
        self.child.wait().unwrap()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Every `pts(name) = {a, b}` line of an `analyze --print` run, by name.
fn printed_points_to(out: &Output) -> BTreeMap<String, BTreeSet<String>> {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| l.strip_prefix("pts(")?.split_once(") = {"))
        .map(|(name, set)| {
            let set = set
                .trim_end_matches('}')
                .split(", ")
                .filter(|s| !s.is_empty());
            (name.to_string(), set.map(str::to_string).collect())
        })
        .collect()
}

/// `cla-tool query <endpoint> <cmd...>`'s reply, which must be `ok`.
fn query(endpoint: &[&str], cmd: &[&str]) -> cla::serve::json::Value {
    let out = run(tool().arg("query").args(endpoint).args(cmd));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    cla::serve::json::parse(text.trim()).unwrap_or_else(|e| panic!("{text:?}: {e}"))
}

/// What a server answers `points-to` for each of `names`.
fn served_points_to(endpoint: &[&str], names: &[&str]) -> BTreeMap<String, BTreeSet<String>> {
    use cla::serve::json::Value;
    names
        .iter()
        .map(|name| {
            let reply = query(endpoint, &["points-to", name]);
            let targets = reply.get("targets").and_then(Value::as_arr).unwrap();
            let set = targets
                .iter()
                .map(|t| t.get("name").and_then(Value::as_str).unwrap().to_string())
                .collect();
            (name.to_string(), set)
        })
        .collect()
}

fn health(endpoint: &[&str]) -> String {
    let reply = query(endpoint, &["health"]);
    let health = reply
        .get("health")
        .and_then(cla::serve::json::Value::as_str);
    health.unwrap().to_string()
}

/// Two units sharing `p`; `q` copies it in the second.
fn two_units(dir: &Path) -> (String, String) {
    let a = write(dir, "a.c", "int x, y; int *p; void fa(void) { p = &x; }\n");
    let b = write(
        dir,
        "b.c",
        "extern int *p; int *q; extern int y; void fb(void) { q = p; p = &y; }\n",
    );
    (a, b)
}

/// The `cache-hits=` line of an `analyze --snapshot` run.
fn store_line(out: &Output) -> String {
    (String::from_utf8_lossy(&out.stdout).lines())
        .find(|l| l.starts_with("cache-hits="))
        .unwrap_or_else(|| panic!("no cache-hits= line: {out:?}"))
        .to_string()
}

#[test]
fn analyze_snapshot_says_what_it_loaded_and_a_partial_run_writes_nothing() {
    let dir = tmpdir("snapshot-line");
    let (a, b) = two_units(&dir);
    let snap = dir.join("snap").to_string_lossy().into_owned();
    let analyze = |files: &[&str]| {
        let mut args = vec!["analyze"];
        args.extend_from_slice(files);
        args.extend(["--snapshot", snap.as_str(), "--print", "q"]);
        run(tool().args(&args))
    };
    let cold = analyze(&[&a, &b]);
    assert!(
        store_line(&cold).ends_with("program=linked snapshot=written"),
        "{}",
        store_line(&cold)
    );
    let warm = analyze(&[&a, &b]);
    assert!(
        store_line(&warm).ends_with("program=loaded snapshot=loaded (solve skipped)"),
        "{}",
        store_line(&warm)
    );
    assert_eq!(printed_points_to(&warm), printed_points_to(&cold));

    // A partial run bypasses the store: it must not claim a write.
    let bad = write(&dir, "bad.c", "int broken = ;\n");
    let partial = analyze(&[&a, &b, &bad]);
    let line = store_line(&partial);
    assert!(
        line.ends_with("program=linked snapshot=skipped (partial)"),
        "{line}"
    );
    assert_eq!(printed_points_to(&partial), printed_points_to(&cold));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_lenient_over_sources_answers_like_analyze() {
    let dir = tmpdir("serve-lenient");
    let (a, b) = two_units(&dir);
    let bad = write(&dir, "bad.c", "int broken = ;\n");
    let socket = dir.join("s.sock").to_string_lossy().into_owned();
    let expected = printed_points_to(&run(
        tool().args(["analyze", &a, &b, &bad, "--print", "p", "q"])
    ));
    assert_eq!(expected["q"], BTreeSet::from(["x".into(), "y".into()]));

    let server = Server::start(&["serve", &a, &b, &bad, "--socket", &socket, "--lenient"]);
    assert!(
        (server.banner.iter()).any(|l| l.starts_with("cla-tool: quarantined") && l.contains(&bad)),
        "{:?}",
        server.banner
    );
    let endpoint = ["--socket", socket.as_str()];
    assert_eq!(health(&endpoint), "partial");
    assert_eq!(served_points_to(&endpoint, &["p", "q"]), expected);
    query(&endpoint, &["shutdown"]);
    assert!(server.wait().success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_over_a_compiled_object_answers_like_analyze() {
    let dir = tmpdir("serve-object");
    let (a, b) = two_units(&dir);
    let obj = dir.join("prog.clao").to_string_lossy().into_owned();
    run(tool().args(["compile", &a, &b, "-o", &obj]));
    let socket = dir.join("s.sock").to_string_lossy().into_owned();
    let expected = printed_points_to(&run(tool().args(["analyze", &a, &b, "--print", "p", "q"])));

    let server = Server::start(&["serve", &obj, "--socket", &socket]);
    let endpoint = ["--socket", socket.as_str()];
    assert_eq!(health(&endpoint), "ok");
    assert_eq!(served_points_to(&endpoint, &["p", "q"]), expected);
    query(&endpoint, &["shutdown"]);
    assert!(server.wait().success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hub_over_a_directory_and_an_object_answers_like_analyze() {
    let dir = tmpdir("hub");
    let src = dir.join("src");
    std::fs::create_dir_all(&src).unwrap();
    // The directory joins the include path, so `a.c` finds its header.
    write(&src, "defs.h", "extern int *p;\n");
    let a = write(
        &src,
        "a.c",
        "#include <defs.h>\nint x; int *r; void fa(void) { p = &x; r = p; }\n",
    );
    let b = write(&src, "b.c", "int *p; int z; void fb(void) { p = &z; }\n");
    let (c, d) = two_units(&dir);
    let obj = dir.join("prog.clao").to_string_lossy().into_owned();
    run(tool().args(["compile", &c, &d, "-o", &obj]));
    let inc = src.to_string_lossy().into_owned();
    let from_dir = printed_points_to(&run(
        tool().args(["analyze", &a, &b, "-I", &inc, "--print", "p", "r"])
    ));
    let from_obj = printed_points_to(&run(tool().args(["analyze", &c, &d, "--print", "p", "q"])));
    assert_eq!(from_dir["r"], BTreeSet::from(["x".into(), "z".into()]));

    let sessions = [format!("a={}", src.display()), format!("b={obj}")];
    let server = Server::start(&["hub", &sessions[0], &sessions[1], "--listen", "127.0.0.1:0"]);
    let addr = server.hub_addr();
    let endpoint = |session| ["--tcp", addr.as_str(), "--session", session];
    assert_eq!(served_points_to(&endpoint("a"), &["p", "r"]), from_dir);
    assert_eq!(served_points_to(&endpoint("b"), &["p", "q"]), from_obj);
    assert_eq!(health(&endpoint("a")), "ok");
    query(&["--tcp", &addr], &["shutdown"]);
    assert!(server.wait().success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn errors_exit_nonzero() {
    let out = tool().args(["dump", "/nonexistent.clao"]).output().unwrap();
    assert!(!out.status.success());
    let out = tool().args(["bogus-subcommand"]).output().unwrap();
    assert!(!out.status.success());
    let out = tool().args(["solve"]).output().unwrap();
    assert!(!out.status.success());
}

/// `examples/c/*.c`, sorted, and `examples/c` for `-I`.
fn example_sources() -> (Vec<String>, String) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/c");
    let mut sources: Vec<String> = (std::fs::read_dir(&dir).unwrap())
        .map(|e| e.unwrap().path().to_string_lossy().into_owned())
        .filter(|p| p.ends_with(".c"))
        .collect();
    sources.sort();
    (sources, dir.to_string_lossy().into_owned())
}

/// `compile` links through the pipeline's one build: the object it writes
/// names its program `a.out` whatever the `-o` path, and it is the program
/// `analyze --snapshot` stores from the same sources, byte for byte. This
/// fails where `compile` linked by hand under the `-o` path's name: its two
/// outputs then differ from each other (at byte 9) and from the stored
/// program.
#[test]
fn compile_writes_the_program_analyze_links() {
    let dir = tmpdir("one-object");
    let (sources, inc) = example_sources();
    std::fs::create_dir_all(dir.join("elsewhere")).unwrap();
    let outs = [dir.join("a.clao"), dir.join("elsewhere/prog.clao")];
    for out in &outs {
        run(tool()
            .arg("compile")
            .args(&sources)
            .args(["-I", &inc, "-o"])
            .arg(out));
    }
    let store = dir.join("store");
    run(tool()
        .arg("analyze")
        .args(&sources)
        .args(["-I", &inc, "--snapshot"])
        .arg(&store));
    let stored: Vec<PathBuf> = (std::fs::read_dir(&store).unwrap())
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "clao"))
        .collect();
    let [program] = stored.as_slice() else {
        panic!("expected one stored program: {stored:?}");
    };
    let want = std::fs::read(program).unwrap();
    for out in &outs {
        assert!(
            std::fs::read(out).unwrap() == want,
            "{} differs from the stored {}",
            out.display(),
            program.display()
        );
    }
    let dumped = run(tool().arg("dump").arg(&outs[1]));
    assert!(String::from_utf8_lossy(&dumped.stdout).starts_with("object file for a.out"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A reader that hangs up is not a crash: `analyze` with a `--print` far
/// larger than a pipe's buffer, read for one line and closed, ends quietly
/// with exit 0. (`println!` panicked there, and the process exited 101.)
#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    let (sources, inc) = example_sources();
    let mut child = tool()
        .arg("analyze")
        .args(&sources)
        .args(["-I", &inc, "--print"])
        .args(std::iter::repeat_n("latest", 10_000))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut first = String::new();
    // The reader is dropped, and the pipe closed, after its first line.
    (BufReader::new(child.stdout.take().unwrap()).read_line(&mut first)).unwrap();
    let out = child.wait_with_output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(first.starts_with("files="), "first line: {first}");
    assert!(out.status.success(), "exit {}: {err}", out.status);
    assert!(!err.contains("panicked"), "{err}");
}
