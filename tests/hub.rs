//! Multi-tenant hub integration tests: session routing and isolation over
//! TCP, lifecycle commands, LRU eviction with snapshot-backed rehydration
//! and monotonic epochs, typed busy refusals, per-tenant metrics, and the
//! acceptance stress test — hundreds of concurrent clients across a dozen
//! sessions racing reloads and evictions, every answer checked against its
//! session's per-epoch oracle.

use cla::hub::{dispatch, hub_serve, Hub, HubOptions, SessionSource, SessionSpec};
use cla::obs::parse_exposition;
use cla::prelude::*;
use cla::serve::json::{obj, Value};
use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU8, Ordering::SeqCst};
use std::sync::{Arc, Mutex};

/// A test directory that cleans up after itself even on panic.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("cla-hub-it-{tag}-{}", std::process::id()));
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

/// An in-memory tenant source compiled from one literal source file.
fn mem_source(src: &str) -> SessionSource {
    let mut fs = MemoryFs::new();
    fs.add("a.c", src);
    SessionSource::Files {
        fs: Arc::new(fs),
        files: vec!["a.c".to_string()],
        pp: PpOptions::default(),
        lower: LowerOptions::default(),
        lenient: false,
    }
}

fn spec(source: SessionSource, snapshot_dir: Option<PathBuf>) -> SessionSpec {
    SessionSpec {
        source,
        solve: SolveOptions::default(),
        snapshot_dir,
        jobs: 1,
    }
}

/// The two on-disk versions of session `i`'s program. Variable names are
/// suffixed with the session index, so an answer routed to the wrong
/// session fails loudly (unknown variable) instead of silently matching.
fn version_source(i: usize, version: u8) -> String {
    let target = if version == 0 { "x" } else { "y" };
    format!(
        "int x_s{i}; int y_s{i}; int *p_s{i};\n\
         void f_s{i}(void) {{ p_s{i} = &{target}_s{i}; }}\n"
    )
}

/// Atomically (re)writes session `i`'s source so a concurrent rebuild
/// reads the old or the new program, never a torn file.
fn write_version(dir: &Path, i: usize, version: u8) -> PathBuf {
    let path = dir.join(format!("s{i}.c"));
    cla::cladb::atomic_write_bytes(&path, version_source(i, version).as_bytes()).unwrap();
    path
}

fn disk_source(path: &Path) -> SessionSource {
    SessionSource::Files {
        fs: Arc::new(OsFs),
        files: vec![path.to_string_lossy().into_owned()],
        pp: PpOptions::default(),
        lower: LowerOptions::default(),
        lenient: false,
    }
}

fn ask(client: &mut Client, req: &Value) -> Value {
    client.request(req).expect("hub reply")
}

fn target_names(reply: &Value) -> BTreeSet<String> {
    reply
        .get("targets")
        .and_then(Value::as_arr)
        .expect("targets array")
        .iter()
        .map(|t| t.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect()
}

fn points_to(session: &str, var: &str) -> Value {
    obj([
        ("cmd", "points-to".into()),
        ("session", session.into()),
        ("var", var.into()),
    ])
}

/// Two sessions that use the *same* variable names with different
/// bindings: routing by the `session` field is the only thing that can
/// tell them apart.
#[test]
fn sessions_are_isolated_by_name() {
    let hub = Arc::new(Hub::new(HubOptions::default()));
    hub.open(
        "iso-a",
        spec(
            mem_source("int x; int y; int *p; void f(void) { p = &x; }"),
            None,
        ),
    )
    .unwrap();
    hub.open(
        "iso-b",
        spec(
            mem_source("int x; int y; int *p; void f(void) { p = &y; }"),
            None,
        ),
    )
    .unwrap();

    let handle = hub_serve(Arc::clone(&hub), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(&Endpoint::Tcp(handle.addr().to_string())).unwrap();

    let a = ask(&mut client, &points_to("iso-a", "p"));
    assert_eq!(a.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(a.get("session").and_then(Value::as_str), Some("iso-a"));
    assert_eq!(target_names(&a), BTreeSet::from(["x".to_string()]));

    let b = ask(&mut client, &points_to("iso-b", "p"));
    assert_eq!(target_names(&b), BTreeSet::from(["y".to_string()]));

    // Tenant commands without a session are refused, not guessed.
    let missing = ask(
        &mut client,
        &obj([("cmd", "points-to".into()), ("var", "p".into())]),
    );
    assert_eq!(missing.get("ok").and_then(Value::as_bool), Some(false));

    // Unknown sessions get a typed error that echoes the name.
    let unknown = ask(&mut client, &points_to("nope", "p"));
    assert_eq!(unknown.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(unknown.get("session").and_then(Value::as_str), Some("nope"));

    handle.stop();
}

/// The full wire lifecycle: `open` a session from on-disk sources, query
/// it, list it, `close` it, and observe the typed error afterwards.
#[test]
fn lifecycle_over_the_wire() {
    let dir = TempDir::new("lifecycle");
    let src = write_version(dir.path(), 7, 0);

    let hub = Arc::new(Hub::new(HubOptions::default()));
    let handle = hub_serve(Arc::clone(&hub), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(&Endpoint::Tcp(handle.addr().to_string())).unwrap();

    let opened = ask(
        &mut client,
        &obj([
            ("cmd", "open".into()),
            ("session", "wire".into()),
            (
                "files",
                Value::Arr(vec![src.to_string_lossy().into_owned().into()]),
            ),
        ]),
    );
    assert_eq!(
        opened.get("ok").and_then(Value::as_bool),
        Some(true),
        "{opened:?}"
    );
    assert_eq!(opened.get("epoch").and_then(Value::as_u64), Some(0));

    // Bad names are rejected before anything is built.
    let bad = ask(
        &mut client,
        &obj([("cmd", "open".into()), ("session", "no spaces".into())]),
    );
    assert_eq!(bad.get("ok").and_then(Value::as_bool), Some(false));

    // Opening the same name twice is a typed duplicate error.
    let dup = ask(
        &mut client,
        &obj([
            ("cmd", "open".into()),
            ("session", "wire".into()),
            (
                "files",
                Value::Arr(vec![src.to_string_lossy().into_owned().into()]),
            ),
        ]),
    );
    assert_eq!(dup.get("ok").and_then(Value::as_bool), Some(false));

    let answer = ask(&mut client, &points_to("wire", "p_s7"));
    assert_eq!(target_names(&answer), BTreeSet::from(["x_s7".to_string()]));

    let listing = ask(&mut client, &obj([("cmd", "sessions".into())]));
    assert_eq!(listing.get("ok").and_then(Value::as_bool), Some(true));
    let sessions = listing.get("sessions").and_then(Value::as_arr).unwrap();
    assert!(sessions.iter().any(|s| {
        s.get("session").and_then(Value::as_str) == Some("wire")
            && s.get("state").and_then(Value::as_str) == Some("resident")
    }));

    let closed = ask(
        &mut client,
        &obj([("cmd", "close".into()), ("session", "wire".into())]),
    );
    assert_eq!(closed.get("ok").and_then(Value::as_bool), Some(true));
    let gone = ask(&mut client, &points_to("wire", "p_s7"));
    assert_eq!(gone.get("ok").and_then(Value::as_bool), Some(false));

    handle.stop();
}

/// With capacity 1 and three tenants, every switch evicts the previous
/// tenant; returning to an evicted one rehydrates it from its snapshot
/// with a *higher* epoch, and the answers survive the round trip.
#[test]
fn eviction_rehydrates_from_snapshot_with_monotonic_epochs() {
    let dir = TempDir::new("evict");
    let hub = Arc::new(Hub::new(HubOptions {
        capacity: 1,
        ..HubOptions::default()
    }));
    for i in 0..3usize {
        let src = write_version(dir.path(), i, 0);
        let snap = dir.path().join(format!("snap-{i}"));
        std::fs::create_dir_all(&snap).unwrap();
        hub.open(&format!("ev{i}"), spec(disk_source(&src), Some(snap)))
            .unwrap();
    }
    // Opening ev1 and ev2 (capacity 1) must have evicted predecessors.
    assert!(
        hub.sessions().iter().any(|s| s.state == "evicted"),
        "capacity 1 with 3 tenants must leave evicted sessions"
    );

    let handle = hub_serve(Arc::clone(&hub), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(&Endpoint::Tcp(handle.addr().to_string())).unwrap();

    // Cycle through the tenants a few times; each revisit is a
    // rehydration and must answer correctly at a strictly higher epoch.
    let mut last_epoch: HashMap<usize, u64> = HashMap::new();
    for round in 0..3 {
        for i in 0..3usize {
            let reply = ask(
                &mut client,
                &points_to(&format!("ev{i}"), &format!("p_s{i}")),
            );
            assert_eq!(
                reply.get("ok").and_then(Value::as_bool),
                Some(true),
                "round {round}: {reply:?}"
            );
            assert_eq!(target_names(&reply), BTreeSet::from([format!("x_s{i}")]));
            let epoch = reply.get("epoch").and_then(Value::as_u64).unwrap();
            if let Some(prev) = last_epoch.insert(i, epoch) {
                assert!(
                    epoch > prev,
                    "ev{i}: epoch must grow across rehydration ({prev} -> {epoch})"
                );
            }
        }
    }
    let counters = hub.tenant_counters("ev0");
    assert!(counters.evictions >= 1, "ev0 was never evicted");
    assert!(counters.rehydrations >= 1, "ev0 was never rehydrated");

    // Rehydration came from the snapshot store, not a cold re-solve.
    let health = ask(
        &mut client,
        &obj([("cmd", "health".into()), ("session", "ev0".into())]),
    );
    assert_eq!(
        health.get("snapshot_loaded").and_then(Value::as_bool),
        Some(true),
        "rehydration must warm-start from the snapshot: {health:?}"
    );

    handle.stop();
}

/// A tenant's `reload` is the pipeline's refresh: an edited header reaches
/// exactly the files that read it, over the wire.
#[test]
fn tenant_reload_sees_a_header_edit() {
    let dir = TempDir::new("header");
    let path = |name: &str| dir.path().join(name).to_string_lossy().into_owned();
    std::fs::write(path("defs.h"), "#define TARGET x\n").unwrap();
    std::fs::write(
        path("a.c"),
        "#include \"defs.h\"\nint x, y; int *p; void fa(void) { p = &TARGET; }",
    )
    .unwrap();
    std::fs::write(path("c.c"), "int z; int *r; void fc(void) { r = &z; }").unwrap();

    let hub = Hub::new(HubOptions::default());
    let source = SessionSource::Files {
        fs: Arc::new(OsFs),
        files: vec![path("a.c"), path("c.c")],
        pp: PpOptions::default(),
        lower: LowerOptions::default(),
        lenient: false,
    };
    hub.open("hdr", spec(source, None)).unwrap();
    let ask = |req: &Value| dispatch(&hub, &req.encode());
    assert_eq!(
        target_names(&ask(&points_to("hdr", "p"))),
        BTreeSet::from(["x".to_string()])
    );

    std::fs::write(path("defs.h"), "#define TARGET y\n").unwrap();
    let reply = ask(&obj([("cmd", "reload".into()), ("session", "hdr".into())]));
    assert_eq!(reply.get("relinked").and_then(Value::as_bool), Some(true));
    assert_eq!(reply.get("epoch").and_then(Value::as_u64), Some(1));
    let recompiled: Vec<&str> = reply
        .get("recompiled")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(recompiled, [path("a.c")], "{reply:?}");
    assert_eq!(
        target_names(&ask(&points_to("hdr", "p"))),
        BTreeSet::from(["y".to_string()])
    );
}

/// A header created earlier on a tenant's include path shadows the one its
/// file was built with: a reload sees it and answers like a cold analyze.
#[test]
fn tenant_reload_sees_a_shadowing_header() {
    let dir = TempDir::new("shadow");
    let path = |name: &str| dir.path().join(name).to_string_lossy().into_owned();
    for sub in ["a", "b"] {
        std::fs::create_dir_all(dir.path().join(sub)).unwrap();
    }
    std::fs::write(path("b/h.h"), "#define TARGET x\n").unwrap();
    std::fs::write(
        path("main.c"),
        "#include \"h.h\"\nint x, y; int *p; void f(void) { p = &TARGET; }",
    )
    .unwrap();
    let pp = PpOptions::default()
        .include_dir(path("a"))
        .include_dir(path("b"));
    let hub = Hub::new(HubOptions::default());
    let source = SessionSource::Files {
        fs: Arc::new(OsFs),
        files: vec![path("main.c")],
        pp: pp.clone(),
        lower: LowerOptions::default(),
        lenient: false,
    };
    hub.open("shadow", spec(source, None)).unwrap();
    let ask = |req: &Value| dispatch(&hub, &req.encode());
    let cold = || {
        let opts = PipelineOptions {
            pp: pp.clone(),
            ..Default::default()
        };
        let a = analyze(&OsFs, &[path("main.c").as_str()], &opts).unwrap();
        let p = a.database.targets("p")[0];
        (a.points_to.points_to(p).iter())
            .map(|&t| a.database.object(t).name.clone())
            .collect::<BTreeSet<String>>()
    };
    assert_eq!(target_names(&ask(&points_to("shadow", "p"))), cold());

    std::fs::write(path("a/h.h"), "#define TARGET y\n").unwrap();
    let reply = ask(&obj([
        ("cmd", "reload".into()),
        ("session", "shadow".into()),
    ]));
    assert_eq!(
        reply.get("relinked").and_then(Value::as_bool),
        Some(true),
        "{reply:?}"
    );
    assert_eq!(cold(), BTreeSet::from(["y".to_string()]));
    assert_eq!(target_names(&ask(&points_to("shadow", "p"))), cold());
}

/// A provider that panics on every read while `broken` is set.
struct FlakyFs {
    inner: MemoryFs,
    broken: std::sync::atomic::AtomicBool,
}

impl FileProvider for FlakyFs {
    fn read(&self, path: &str) -> Option<Arc<str>> {
        assert!(
            !self.broken.load(SeqCst),
            "the disk under {path} is on fire"
        );
        self.inner.read(path)
    }
}

/// A frontend panic during a tenant's rebuild is a typed build error: the
/// tenant's slot lock is not poisoned, and the tenant answers again as
/// soon as its sources compile.
#[test]
fn a_panicking_rebuild_leaves_the_tenant_usable() {
    let mut inner = MemoryFs::new();
    inner.add("a.c", "int x; int *p; void f(void) { p = &x; }");
    let flaky = Arc::new(FlakyFs {
        inner,
        broken: false.into(),
    });
    let hub = Hub::new(HubOptions {
        capacity: 1,
        ..HubOptions::default()
    });
    let source = SessionSource::Files {
        fs: Arc::clone(&flaky) as _,
        files: vec!["a.c".to_string()],
        pp: PpOptions::default(),
        lower: LowerOptions::default(),
        lenient: false,
    };
    hub.open("flaky", spec(source, None)).unwrap();
    // Capacity 1: opening a second tenant evicts the first.
    hub.open("other", spec(mem_source("int o;"), None)).unwrap();

    flaky.broken.store(true, SeqCst);
    let refused = dispatch(&hub, &points_to("flaky", "p").encode());
    assert_eq!(refused.get("ok").and_then(Value::as_bool), Some(false));
    let why = refused.get("error").and_then(Value::as_str).unwrap();
    assert!(why.contains("on fire"), "{refused:?}");

    flaky.broken.store(false, SeqCst);
    let answer = dispatch(&hub, &points_to("flaky", "p").encode());
    assert_eq!(target_names(&answer), BTreeSet::from(["x".to_string()]));
}

/// A tenant at its in-flight cap refuses immediately with a typed `busy`
/// reply instead of queueing the connection thread.
#[test]
fn busy_refusal_is_typed_and_immediate() {
    let hub = Arc::new(Hub::new(HubOptions {
        max_inflight: 1,
        ..HubOptions::default()
    }));
    hub.open(
        "busy",
        spec(mem_source("int x; int *p; void f(void) { p = &x; }"), None),
    )
    .unwrap();

    let (entered_tx, entered_rx) = std::sync::mpsc::channel::<()>();
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    let holder = {
        let hub = Arc::clone(&hub);
        std::thread::spawn(move || {
            hub.with_session("busy", |_, _| {
                entered_tx.send(()).unwrap();
                release_rx.recv().unwrap();
            })
            .unwrap();
        })
    };
    entered_rx.recv().unwrap();

    // The slot is occupied: the wire reply is an immediate typed refusal.
    let reply = dispatch(
        &hub,
        "{\"cmd\":\"points-to\",\"var\":\"p\",\"session\":\"busy\"}",
    );
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(reply.get("busy").and_then(Value::as_bool), Some(true));
    assert_eq!(reply.get("session").and_then(Value::as_str), Some("busy"));

    release_tx.send(()).unwrap();
    holder.join().unwrap();

    // Once the in-flight request drains, the same query succeeds.
    let reply = dispatch(
        &hub,
        "{\"cmd\":\"points-to\",\"var\":\"p\",\"session\":\"busy\"}",
    );
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true));
}

/// The acceptance stress test: 12 named sessions behind an LRU of 6, over
/// 100 concurrent TCP clients, with mutator threads racing source flips
/// and forced reloads against evictions and rehydrations. Every answer is
/// checked against the session's per-epoch oracle: within one (session,
/// epoch) pair all clients must see the same binding, and the binding
/// must always be one of the two legal program versions. Client-observed
/// p99 stays under a fixed bound and the per-tenant counters and
/// percentiles show up in the Prometheus exposition.
#[test]
fn stress_many_clients_many_sessions_racing_reloads_and_evictions() {
    const SESSIONS: usize = 12;
    const CAPACITY: usize = 6;
    const CLIENTS: usize = 100;
    const REQUESTS_PER_CLIENT: usize = 20;
    const MUTATORS: usize = 2;
    const FLIPS_PER_MUTATOR: usize = 30;
    const P99_BOUND_US: u64 = 2_000_000;

    let dir = TempDir::new("stress");
    let hub = Arc::new(Hub::new(HubOptions {
        capacity: CAPACITY,
        max_inflight: 64,
        rebuild_slots: 2,
        ..HubOptions::default()
    }));
    let mut sources = Vec::new();
    for i in 0..SESSIONS {
        let src = write_version(dir.path(), i, 0);
        let snap = dir.path().join(format!("snap-{i}"));
        std::fs::create_dir_all(&snap).unwrap();
        hub.open(&format!("s{i}"), spec(disk_source(&src), Some(snap)))
            .unwrap();
        sources.push(src);
    }
    let handle = hub_serve(Arc::clone(&hub), "127.0.0.1:0").unwrap();
    let addr = handle.addr().to_string();

    // The oracle: the first answer observed at a (session, epoch) pins the
    // binding; every later answer at the same pair must agree, and the
    // binding must be one of the two versions that were ever on disk.
    type Oracle = Mutex<HashMap<(usize, u64), BTreeSet<String>>>;
    let oracle: Arc<Oracle> = Arc::new(Mutex::new(HashMap::new()));
    let errors: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let latencies: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let versions: Arc<Vec<AtomicU8>> = Arc::new((0..SESSIONS).map(|_| AtomicU8::new(0)).collect());

    // A tiny deterministic LCG stands in for a rand dependency.
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    let check = |reply: &Value, session: usize| -> Result<(), String> {
        if reply.get("ok").and_then(Value::as_bool) != Some(true) {
            // A typed busy refusal is legal backpressure; anything else
            // (unknown variable, build failure, missing session) is a bug.
            if reply.get("busy").and_then(Value::as_bool) == Some(true) {
                return Ok(());
            }
            return Err(format!("s{session}: error reply {:?}", reply.encode()));
        }
        let epoch = reply
            .get("epoch")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("s{session}: reply without epoch"))?;
        let names = target_names(reply);
        let legal_a = BTreeSet::from([format!("x_s{session}")]);
        let legal_b = BTreeSet::from([format!("y_s{session}")]);
        if names != legal_a && names != legal_b {
            return Err(format!("s{session}@{epoch}: impossible binding {names:?}"));
        }
        let mut oracle = oracle.lock().unwrap();
        match oracle.get(&(session, epoch)) {
            Some(pinned) if *pinned != names => Err(format!(
                "s{session}@{epoch}: answer flapped within one epoch: {pinned:?} vs {names:?}"
            )),
            Some(_) => Ok(()),
            None => {
                oracle.insert((session, epoch), names);
                Ok(())
            }
        }
    };

    std::thread::scope(|scope| {
        // Mutator threads: flip a session's program on disk (atomically),
        // then force a reload through the wire — racing the LRU, other
        // mutators, and every query thread.
        for m in 0..MUTATORS {
            let addr = addr.clone();
            let dir = dir.path().to_path_buf();
            let versions = Arc::clone(&versions);
            let errors = Arc::clone(&errors);
            scope.spawn(move || {
                let mut client = Client::connect(&Endpoint::Tcp(addr)).unwrap();
                let mut rng = 0x9e3779b97f4a7c15u64.wrapping_add(m as u64);
                for _ in 0..FLIPS_PER_MUTATOR {
                    let i = (lcg(&mut rng) as usize) % SESSIONS;
                    let v = versions[i].fetch_xor(1, SeqCst) ^ 1;
                    write_version(&dir, i, v);
                    let reply = client
                        .request(&obj([
                            ("cmd", "reload".into()),
                            ("session", format!("s{i}").into()),
                            ("force", true.into()),
                        ]))
                        .expect("reload reply");
                    if reply.get("ok").and_then(Value::as_bool) != Some(true)
                        && reply.get("busy").and_then(Value::as_bool) != Some(true)
                    {
                        errors.lock().unwrap().push(format!(
                            "mutator {m}: reload s{i} failed: {}",
                            reply.encode()
                        ));
                    }
                }
            });
        }

        for c in 0..CLIENTS {
            let addr = addr.clone();
            let errors = Arc::clone(&errors);
            let latencies = Arc::clone(&latencies);
            let check = &check;
            scope.spawn(move || {
                let mut client = Client::connect(&Endpoint::Tcp(addr)).unwrap();
                let mut rng = 0x243f6a8885a308d3u64.wrapping_add(c as u64);
                let mut local = Vec::with_capacity(REQUESTS_PER_CLIENT);
                for r in 0..REQUESTS_PER_CLIENT {
                    // First request pins this client's "home" session so all
                    // twelve tenants see traffic; later picks are random.
                    let i = if r == 0 {
                        c % SESSIONS
                    } else {
                        (lcg(&mut rng) as usize) % SESSIONS
                    };
                    let t0 = std::time::Instant::now();
                    let reply = client
                        .request(&points_to(&format!("s{i}"), &format!("p_s{i}")))
                        .expect("query reply");
                    local.push(t0.elapsed().as_micros() as u64);
                    if let Err(e) = check(&reply, i) {
                        errors.lock().unwrap().push(e);
                    }
                }
                latencies.lock().unwrap().extend(local);
            });
        }
    });

    let errors = errors.lock().unwrap();
    assert!(
        errors.is_empty(),
        "oracle violations: {:#?}",
        &errors[..errors.len().min(10)]
    );

    let mut lat = latencies.lock().unwrap().clone();
    assert_eq!(lat.len(), CLIENTS * REQUESTS_PER_CLIENT);
    lat.sort_unstable();
    let p99 = lat[(lat.len() * 99) / 100 - 1];
    assert!(
        p99 < P99_BOUND_US,
        "client-observed p99 {p99}us exceeds {P99_BOUND_US}us"
    );

    // The LRU actually churned: with 12 tenants behind 6 slots, evictions
    // and snapshot rehydrations are structural, not incidental.
    let totals: Vec<_> = (0..SESSIONS)
        .map(|i| hub.tenant_counters(&format!("s{i}")))
        .collect();
    let evictions: u64 = totals.iter().map(|t| t.evictions).sum();
    let rehydrations: u64 = totals.iter().map(|t| t.rehydrations).sum();
    assert!(evictions > 0, "no tenant was ever evicted");
    assert!(rehydrations > 0, "no tenant was ever rehydrated");
    assert!(
        totals.iter().all(|t| t.requests > 0),
        "every tenant must have seen traffic"
    );

    // Per-tenant counters and latency percentiles are in the exposition.
    let metrics = dispatch(&hub, "{\"cmd\":\"metrics\"}");
    let text = metrics.get("metrics").and_then(Value::as_str).unwrap();
    let samples = parse_exposition(text).expect("exposition must parse");
    for i in 0..SESSIONS {
        let session = format!("s{i}");
        let labeled = |name: &str| {
            samples.iter().find(|s| {
                s.name == name
                    && s.labels
                        .iter()
                        .any(|(k, v)| k == "session" && *v == session)
            })
        };
        let requests = labeled("cla_hub_requests_total")
            .unwrap_or_else(|| panic!("no per-tenant request counter for {session}"));
        assert!(requests.value > 0.0);
        assert!(
            labeled("cla_hub_latency_p99_us").is_some(),
            "no per-tenant p99 gauge for {session}"
        );
        assert!(
            labeled("cla_hub_latency_us_count").is_some(),
            "no per-tenant latency histogram for {session}"
        );
    }

    handle.stop();
}
