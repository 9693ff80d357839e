//! The trace runs: each workload once, single-threaded and in-process, with
//! every call into a crate's public function wrapped in a harness span. A
//! span is named after the per-layer metric it feeds, so the metric table
//! is filled from the spans alone: `_s` metrics sum the self time of their
//! spans, `_us`/`_ms` metrics (and [`MEANS`]) average it per call.
//!
//! The batch pipelines are rebuilt by hand from the functions `analyze`,
//! `analyze_with` and `Session::reload` call, because the program carries no
//! spans a harness could read; each rebuilt result is held against the real
//! route so the two cannot drift apart unnoticed.

use crate::child::{open_session, tenant_spec, TENANT};
use crate::inputs::{self, generate_tree, Query, QueryStream, Tree};
use crate::metrics::{Metrics, PER_LAYER};
use crate::oracle::Oracle;
use crate::pinned;
use crate::stats::{mean, percentile, sorted};
use crate::trace::{Tracer, HARNESS};
use crate::{Ctx, Outcome};
use cla::cfront::{parser, pp, Preprocessed};
use cla::cladb::{fnv64, Linker};
use cla::core::pipeline::{closure_hash, options_fingerprint, CompileCache, Provenance};
use cla::core::Warm;
use cla::depend::{DependOptions, DependenceAnalysis};
use cla::hub::{dispatch, hub_serve, Hub, HubOptions};
use cla::ir::lower_unit;
use cla::prelude::*;
use cla::serve::json::{self, obj};
use cla::serve::{handle_request, object_provenance, ServeOptions};
use cla::snap::{encode_snapshot, save_snapshot, SNAPSHOT_FILE};
use std::hint::black_box;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

/// The layer of the root span; its self time is `trace.unattributed_s`.
const ROOT: &str = "root";

/// `_s` metrics reported per call instead of summed.
const MEANS: &[&str] = &["serve.reload_s"];

/// How many `depend` targets and evicted-tenant wake-ups the trace samples.
const DEPEND_SAMPLES: usize = 32;
const REHYDRATIONS: usize = 5;

pub fn run(ctx: &Ctx, workload: &str) -> Result<Outcome, String> {
    let mut tr = Tracer::new();
    let mut out = Outcome::new(Metrics::new(PER_LAYER));
    tr.span(ROOT, "trace.run", |tr| match workload {
        "million_cold" => million_cold(ctx, tr, &mut out),
        "million_warm" => million_warm(ctx, tr, &mut out),
        "table3_analyze" => table3(ctx, tr, &mut out),
        "edit_reload" => edit_reload(ctx, tr, &mut out),
        "hub_queries" => hub_queries(ctx, tr, &mut out),
        other => Err(format!("unknown workload {other}")),
    })?;
    publish(ctx, workload, &tr, &mut out)?;
    Ok(out)
}

/// Fills the time metrics from the spans, checks that the layers partition
/// the run, and writes the Chrome trace next to the build.
fn publish(ctx: &Ctx, workload: &str, tr: &Tracer, out: &mut Outcome) -> Result<(), String> {
    for d in PER_LAYER {
        let calls = tr.count(d.name);
        if calls == 0 {
            continue;
        }
        let secs = tr.self_secs(d.name);
        let value = match d.unit {
            "us" => secs * 1e6 / calls as f64,
            "ms" => secs * 1e3 / calls as f64,
            _ if MEANS.contains(&d.name) => secs / calls as f64,
            _ => secs,
        };
        out.metrics.set(d.name, value);
    }
    let layers = tr.layer_self_ns();
    let root = &tr.spans()[0];
    let wall_ns = root.end_ns - root.start_ns;
    let secs = |layer: &str| layers.get(layer).copied().unwrap_or(0) as f64 / 1e9;
    out.metrics.set("trace.serial_wall_s", wall_ns as f64 / 1e9);
    out.metrics.set("trace.unattributed_s", secs(ROOT));
    out.metrics.set("trace.harness_s", secs(HARNESS));
    out.check(layers.values().sum::<u64>() == wall_ns, || {
        format!(
            "layer self times sum to {} ns of a {wall_ns} ns run",
            layers.values().sum::<u64>()
        )
    });
    let busy: Vec<String> = layers
        .iter()
        .filter(|(layer, _)| **layer != ROOT)
        .map(|(layer, ns)| format!("{layer} {:.3} s", *ns as f64 / 1e9))
        .collect();
    out.note(format!("busy by layer: {}", busy.join(", ")));

    std::fs::create_dir_all(&ctx.keep).map_err(|e| format!("{}: {e}", ctx.keep.display()))?;
    let path = ctx.keep.join(format!("{workload}.trace.json"));
    std::fs::write(&path, tr.chrome_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    out.note(format!("{} spans in {}", tr.spans().len(), path.display()));
    Ok(())
}

// ----- shared pipeline pieces ------------------------------------------------

/// What the front end reports while a tree goes through it.
#[derive(Default)]
struct Front {
    tokens: usize,
    bytes_in: u64,
    files_failed: usize,
    assigns: usize,
    objects: usize,
}

impl Front {
    fn publish(&self, out: &mut Outcome) {
        out.metrics.set("cfront.tokens", self.tokens as f64);
        out.metrics.set("cfront.bytes_in", self.bytes_in as f64);
        out.metrics
            .set("cfront.files_failed", self.files_failed as f64);
        out.metrics.set("ir.assigns", self.assigns as f64);
        out.metrics.set("ir.objects", self.objects as f64);
        out.check(self.files_failed == 0, || {
            format!("{} files failed to compile", self.files_failed)
        });
    }
}

fn generate(
    ctx: &Ctx,
    tr: &mut Tracer,
    out: &mut Outcome,
    spec: &inputs::TreeSpec,
    seed: u64,
) -> Result<Tree, String> {
    let tree = tr
        .leaf("genc", "genc.gen_s", || {
            generate_tree(spec, seed, &ctx.work.join("tree"))
        })
        .map_err(|e| format!("generate: {e}"))?;
    out.metrics.set("genc.loc", tree.report.loc as f64);
    // The top 48 bits: a JSON number holds them exactly.
    out.metrics
        .set("genc.tree_hash", (tree.report.tree_hash >> 16) as f64);
    Ok(tree)
}

fn preprocess(
    tr: &mut Tracer,
    file: &str,
    opts: &PpOptions,
    front: &mut Front,
) -> Option<Preprocessed> {
    match tr.leaf("cfront", "cfront.pp_s", || {
        pp::preprocess(&OsFs, file, opts)
    }) {
        Ok(pre) => {
            front.tokens += pre.stats.tokens_out;
            front.bytes_in += pre.stats.bytes_in;
            Some(pre)
        }
        Err(_) => {
            front.files_failed += 1;
            None
        }
    }
}

/// `compile_file`, one public function at a time.
fn compile(
    tr: &mut Tracer,
    file: &str,
    opts: &PpOptions,
    front: &mut Front,
) -> Option<CompiledUnit> {
    let Preprocessed {
        tokens, sources, ..
    } = preprocess(tr, file, opts, front)?;
    let parsed = tr.leaf("cfront", "cfront.parse_s", || {
        parser::parse_with(tokens, file, &opts.limits)
    });
    let Ok(tu) = parsed else {
        front.files_failed += 1;
        return None;
    };
    let unit = tr.leaf("ir", "ir.lower_s", || {
        lower_unit(&tu, &sources, &LowerOptions::default())
    });
    front.assigns += unit.assigns.len();
    front.objects += unit.objects.len();
    Some(unit)
}

fn fold(tr: &mut Tracer, linker: &mut Linker, unit: &CompiledUnit) {
    tr.leaf("cladb", "cladb.fold_s", || linker.add_unit(unit));
}

/// Finishes the link, serializes the program and opens it again: the tail of
/// every route to a database. Returns the hash of the object bytes too.
fn link_and_open(
    tr: &mut Tracer,
    out: &mut Outcome,
    linker: Linker,
) -> Result<(Database, u64), String> {
    let (program, _) = tr.leaf("cladb", "cladb.link_finish_s", || linker.finish());
    let bytes = tr.leaf("cladb", "cladb.write_object_s", || write_object(&program));
    drop(program);
    out.metrics.set("cladb.object_bytes", bytes.len() as f64);
    let hash = fnv64(&bytes);
    let db = tr
        .leaf("cladb", "cladb.open_s", || Database::open(bytes))
        .map_err(|e| format!("open: {e}"))?;
    Ok((db, hash))
}

fn solve_counts(out: &mut Outcome, stats: &cla::core::SolveStats, db: &Database, pts: &PointsTo) {
    let load = db.load_stats();
    for (name, value) in [
        ("core.passes", stats.passes as f64),
        ("core.edges_added", stats.edges_added as f64),
        ("core.unifications", stats.unifications as f64),
        ("core.getlvals_calls", stats.getlvals_calls as f64),
        ("core.cache_hits", stats.cache_hits as f64),
        ("core.relations", pts.relations() as f64),
        ("core.pointer_variables", pts.pointer_variables() as f64),
        ("cladb.assigns_loaded", load.assigns_loaded as f64),
        ("cladb.assigns_in_file", load.assigns_in_file as f64),
    ] {
        out.metrics.set(name, value);
    }
}

/// `solve_database`, in its two halves.
fn solve(tr: &mut Tracer, out: &mut Outcome, db: &Database) -> PointsTo {
    let mut warm = tr.leaf("core", "core.fixpoint_s", || {
        Warm::from_database(db, SolveOptions::default())
    });
    let pts = tr.leaf("core", "core.extract_s", || {
        warm.extract_points_to(db.objects())
    });
    solve_counts(out, &warm.stats(), db, &pts);
    pts
}

fn parallel_options(ctx: &Ctx) -> PipelineOptions {
    PipelineOptions {
        parallel_compile: true,
        jobs: ctx.jobs,
        ..Default::default()
    }
}

// ----- the five workloads ----------------------------------------------------

fn million_cold(ctx: &Ctx, tr: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let tree = generate(ctx, tr, out, &ctx.sizes.big, ctx.seed)?;
    let opts = PpOptions::default();
    let mut front = Front::default();
    let mut linker = Linker::new("a.out");
    for file in &tree.files {
        if let Some(unit) = compile(tr, file, &opts, &mut front) {
            fold(tr, &mut linker, &unit);
        }
    }
    front.publish(out);
    let (db, _) = link_and_open(tr, out, linker)?;
    let pts = solve(tr, out, &db);

    // The serial pipeline rebuilt above must give what `analyze` gives with
    // its compile pool.
    let real = tr
        .leaf(HARNESS, "bench.analyze", || {
            analyze(&OsFs, &tree.refs(), &parallel_options(ctx))
        })
        .map_err(|e| format!("analyze: {e}"))?;
    let same = tr.leaf(HARNESS, "bench.verify", || real.points_to == pts);
    out.check(same, || {
        "hand-built serial pipeline and `analyze` disagree".into()
    });
    if !ctx.quick && ctx.seed == 1 {
        out.check(front.tokens as u64 == pinned::MILLION_TOKENS, || {
            format!(
                "million tokens: {}, pinned {}",
                front.tokens,
                pinned::MILLION_TOKENS
            )
        });
        out.check(pts.relations() as u64 == pinned::MILLION_RELATIONS, || {
            format!(
                "million relations: {}, pinned {}",
                pts.relations(),
                pinned::MILLION_RELATIONS
            )
        });
    }
    Ok(())
}

fn million_warm(ctx: &Ctx, tr: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let tree = generate(ctx, tr, out, &ctx.sizes.big, ctx.seed)?;
    let cache = DiskCache::open(&ctx.work.join("cache")).map_err(|e| format!("cache: {e}"))?;
    let store = SnapshotStore::open(&ctx.work.join("snap")).map_err(|e| format!("store: {e}"))?;
    let hooks = AnalyzeHooks {
        compile_cache: Some(&cache),
        snapshots: Some(&store),
    };
    let cold = tr
        .leaf(HARNESS, "bench.populate", || {
            analyze_with(&OsFs, &tree.refs(), &parallel_options(ctx), &hooks)
        })
        .map_err(|e| format!("populate: {e}"))?;
    let (_, cold_misses) = cache.counters();

    // `analyze_with` on a full cache and a matching snapshot, by hand.
    let opts = PpOptions::default();
    let options_fp = options_fingerprint(&opts, &LowerOptions::default());
    let mut front = Front::default();
    let mut linker = Linker::new("a.out");
    let mut inputs = Vec::new();
    for file in &tree.files {
        let Some(pre) = preprocess(tr, file, &opts, &mut front) else {
            continue;
        };
        let key = closure_hash(&pre, file, options_fp);
        inputs.push((file.clone(), key));
        let Some(bytes) = tr.leaf("snap", "snap.cache_load_s", || cache.load(key)) else {
            continue;
        };
        let unit = tr
            .leaf("cladb", "cladb.to_unit_s", || {
                Database::open(bytes).and_then(|db| db.to_unit())
            })
            .map_err(|e| format!("cached object of {file}: {e}"))?;
        fold(tr, &mut linker, &unit);
    }
    front.publish(out);
    let (hits, misses) = cache.counters();
    out.metrics.set("snap.cache_hits", hits as f64);
    out.metrics
        .set("snap.cache_misses", (misses - cold_misses) as f64);
    out.check(
        hits as usize == tree.files.len() && misses == cold_misses,
        || format!("{hits} cache hits over {} files", tree.files.len()),
    );
    let (db, _) = link_and_open(tr, out, linker)?;
    let prov = Provenance {
        inputs,
        options_fp,
        solver: SolveOptions::default(),
    };
    let sealed = tr
        .leaf("snap", "snap.load_s", || {
            let snap = Snapshot::open(&store.snapshot_path())?;
            if snap.provenance() == &prov {
                snap.load_sealed().map(Some)
            } else {
                Ok(None)
            }
        })
        .map_err(|e| format!("snapshot: {e}"))?
        .ok_or("stored snapshot has another provenance")?;
    let pts = tr.leaf("core", "core.extract_s", || {
        sealed.extract_points_to(db.objects())
    });
    solve_counts(out, &sealed.stats(), &db, &pts);
    let same = tr.leaf(HARNESS, "bench.verify", || cold.points_to == pts);
    out.check(same, || "warm start and cold run disagree".into());
    Ok(())
}

fn table3(ctx: &Ctx, tr: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let (name, scale) = ctx.sizes.table;
    let program = tr.leaf(HARNESS, "bench.build_program", || {
        inputs::build_table_program(name, scale, ctx.seed)
    })?;
    out.metrics.set("ir.assigns", program.assigns as f64);
    out.metrics.set("ir.objects", program.objects as f64);
    out.metrics
        .set("cladb.object_bytes", program.object.len() as f64);
    let db = tr
        .leaf("cladb", "cladb.open_s", || Database::open(program.object))
        .map_err(|e| format!("open: {e}"))?;
    let pts = solve(tr, out, &db);
    let region: f64 = ["cladb.open_s", "core.fixpoint_s", "core.extract_s"]
        .iter()
        .map(|n| tr.self_secs(n))
        .sum();
    out.note(format!(
        "materialisation is {:.1}% of open + fixpoint + extract",
        100.0 * tr.self_secs("core.extract_s") / region
    ));

    // The other materialisation route: what a server does with the same
    // database. Batch never seals and serve never extracts, so the two are
    // reported apart.
    let again = tr.leaf("core", "core.fixpoint.again", || {
        Warm::from_database(&db, SolveOptions::default())
    });
    let sealed = tr.leaf("core", "core.seal_s", || again.seal());
    let same = tr.leaf(HARNESS, "bench.verify", || {
        (0..db.objects().len() as u32)
            .all(|o| sealed.points_to(ObjId(o)) == pts.points_to(ObjId(o)))
    });
    out.check(same, || {
        "sealed graph and extracted relation disagree".into()
    });
    pinned::check_table(
        out,
        name,
        scale,
        Some(pts.relations() as u64),
        Some(pts.pointer_variables() as u64),
    );
    Ok(())
}

fn edit_reload(ctx: &Ctx, tr: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let tree = generate(ctx, tr, out, &ctx.sizes.mid, inputs::SERVED_TREE_SEED)?;
    let opts = PpOptions::default();
    // The harness's own copy of every unit, for the pipeline by hand.
    let mut units = tr
        .leaf(HARNESS, "bench.precompile", || {
            tree.files
                .iter()
                .map(|f| {
                    compile_file(&OsFs, f, &opts, &LowerOptions::default()).map(|(unit, _)| unit)
                })
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| format!("precompile: {e}"))?;
    let session = tr.leaf("serve", "serve.open", || {
        open_session(&tree.files, &ctx.work.join("snap"), ctx.jobs)
    })?;

    let one_edit =
        |tr: &mut Tracer, out: &mut Outcome, edit: &inputs::Edit| -> Result<f64, String> {
            edit.save(&tree.files)?;
            let t = Instant::now();
            let reload = tr
                .leaf("serve", "serve.reload_s", || {
                    session.reload(Some(&OsFs), false)
                })
                .map_err(|e| format!("reload: {e}"))?;
            let answer = tr
                .leaf("serve", "serve.session", || {
                    session.points_to(&edit.pointer)
                })
                .map_err(|e| format!("{}: {e}", edit.pointer))?;
            let secs = t.elapsed().as_secs_f64();
            let verdict = edit.verdict(&tree.files, &reload, &answer);
            out.check(verdict.is_ok(), || verdict.unwrap_err());
            out.metrics
                .set("serve.recompiled_files", reload.recompiled.len() as f64);
            Ok(secs)
        };
    // Edits alternate between recorder off and recorder on, so that the two
    // means see the same drift: their ratio is what tracing costs.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let edits: Vec<inputs::Edit> = inputs::EditStream::new(ctx.seed, tree.files.len())
        .take(ctx.sizes.trace_edits.max(2))
        .collect();
    for (i, edit) in edits.iter().enumerate() {
        if i % 2 == 0 {
            plain.push(tr.span(HARNESS, "bench.untraced", |tr| {
                tr.recording = false;
                let secs = one_edit(tr, out, edit);
                tr.recording = true;
                secs
            })?);
        } else {
            traced.push(one_edit(tr, out, edit)?);
        }
    }
    out.metrics
        .set("trace.overhead_ratio", mean(&traced) / mean(&plain));

    // One edit's pipeline by hand, next to the reloads above: recompile the
    // file edited last, then relink, re-encode, re-solve, seal and snapshot
    // all. The other edited files are brought up to date first, unmeasured.
    let last = edits.last().expect("at least two edits").file;
    tr.leaf(HARNESS, "bench.precompile", || {
        for edit in edits.iter().filter(|e| e.file != last) {
            let file = &tree.files[edit.file];
            units[edit.file] = compile_file(&OsFs, file, &opts, &LowerOptions::default())
                .map_err(|e| format!("{file}: {e}"))?
                .0;
        }
        Ok::<(), String>(())
    })?;
    let mut front = Front::default();
    units[last] =
        compile(tr, &tree.files[last], &opts, &mut front).ok_or("edited file does not compile")?;
    front.publish(out);
    let mut linker = Linker::new("a.out");
    for unit in &units {
        fold(tr, &mut linker, unit);
    }
    let (db, object_hash) = link_and_open(tr, out, linker)?;
    let warm = tr.leaf("core", "core.fixpoint_s", || {
        Warm::from_database(&db, SolveOptions::default())
    });
    let sealed = tr.leaf("core", "core.seal_s", || warm.seal());
    let names: Vec<String> = db.objects().iter().map(|o| o.name.clone()).collect();
    let prov = object_provenance("a.out", object_hash, SolveOptions::default());
    // `save_snapshot` encodes and then writes; the encoding alone is timed
    // a second time so that the fsync'd write can be told apart.
    let encoded = tr.leaf("snap", "snap.encode_s", || {
        encode_snapshot(&prov, &sealed, &names)
    });
    out.metrics.set("snap.bytes", encoded.len() as f64);
    let path = ctx.work.join("by-hand").join(SNAPSHOT_FILE);
    std::fs::create_dir_all(path.parent().expect("joined path")).map_err(|e| e.to_string())?;
    tr.leaf("snap", "snap.save_s", || {
        save_snapshot(&path, &prov, &sealed, &names)
    })
    .map_err(|e| format!("save: {e}"))?;
    let loaded = tr
        .leaf("snap", "snap.load_s", || {
            Snapshot::open(&path).and_then(|s| s.load_sealed())
        })
        .map_err(|e| format!("load: {e}"))?;
    let pts = tr.leaf(HARNESS, "bench.verify", || {
        sealed.extract_points_to(db.objects())
    });
    solve_counts(out, &sealed.stats(), &db, &pts);
    let (served, _) = session.snapshot();
    let same = tr.leaf(HARNESS, "bench.verify", || {
        (0..db.objects().len() as u32).all(|o| {
            served.points_to(ObjId(o)) == sealed.points_to(ObjId(o))
                && loaded.points_to(ObjId(o)) == sealed.points_to(ObjId(o))
        })
    });
    out.check(same, || {
        "hand-built reload, the session and the saved snapshot disagree".into()
    });
    let parts: f64 = [
        "cfront.pp_s",
        "cfront.parse_s",
        "ir.lower_s",
        "cladb.fold_s",
        "cladb.link_finish_s",
        "cladb.write_object_s",
        "cladb.open_s",
        "core.fixpoint_s",
        "core.seal_s",
        "snap.save_s",
    ]
    .iter()
    .map(|n| tr.self_secs(n))
    .sum();
    out.note(format!(
        "one edit by hand: {:.1} ms in parts; Session::reload: {:.1} ms",
        parts * 1e3,
        tr.self_secs("serve.reload_s") / tr.count("serve.reload_s") as f64 * 1e3
    ));
    Ok(())
}

fn hub_queries(ctx: &Ctx, tr: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let tree = generate(ctx, tr, out, &ctx.sizes.mid, inputs::SERVED_TREE_SEED)?;
    let oracle = tr.leaf(HARNESS, "bench.oracle", || {
        Oracle::build(&tree.refs(), ctx.seed)
    })?;
    out.metrics
        .set("serve.pool_rejected_names", oracle.rejected_names as f64);
    // The head of client 0's stream, as the untraced run sends it.
    let queries: Vec<Query> = QueryStream::new(ctx.seed, 0, oracle.pool.len())
        .take(ctx.sizes.trace_requests)
        .collect();
    let lines: Vec<String> = queries
        .iter()
        .map(|q| oracle.request(q, TENANT).encode())
        .collect();
    let verify = |tr: &mut Tracer, out: &mut Outcome, q: &Query, reply: &json::Value| {
        let verdict = tr.leaf(HARNESS, "bench.verify", || oracle.check(q, reply));
        out.check(verdict.is_ok(), || verdict.unwrap_err());
    };

    // Level 1: wire decode.
    for line in &lines {
        tr.leaf("serve", "serve.decode_us", || {
            black_box(json::parse(line)).is_ok()
        });
    }

    // Level 2: the session's own entry points, split by result-cache hit.
    let session = tr.leaf("serve", "serve.open", || {
        open_session(&tree.files, &ctx.work.join("snap-session"), ctx.jobs)
    })?;
    let before = session.stats();
    let (mut hit_us, mut miss_us) = (Vec::new(), Vec::new());
    for q in &queries {
        let name = |i: &usize| oracle.pool[*i].as_str();
        let t = Instant::now();
        let cached = tr.leaf("serve", "serve.session", || match q {
            Query::PointsTo(v) => session.points_to(name(v)).map(|a| Some(a.cached)),
            Query::Alias(a, b) => session.alias(name(a), name(b)).map(|a| Some(a.cached)),
            // Asked too, so that the cache sees what it sees on the wire.
            Query::Depend(t) => session.depend(name(t), &[]).map(|_| None),
        });
        let us = t.elapsed().as_secs_f64() * 1e6;
        match cached {
            Ok(Some(true)) => hit_us.push(us),
            Ok(Some(false)) => miss_us.push(us),
            Ok(None) => {}
            Err(e) => out.check(false, || format!("{q:?}: {e}")),
        }
    }
    let after = session.stats();
    let (hits, misses) = (
        after.result_cache_hits - before.result_cache_hits,
        after.result_cache_misses - before.result_cache_misses,
    );
    out.metrics.set("serve.session_hit_us", mean(&hit_us));
    out.metrics.set("serve.session_miss_us", mean(&miss_us));
    out.metrics.set(
        "serve.result_cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );

    // Level 3: the whole request handler, then the reply encoder. A forced
    // reload empties the result cache, so every level starts cold.
    tr.leaf("serve", "serve.reset", || session.reload(Some(&OsFs), true))
        .map_err(|e| format!("reset: {e}"))?;
    let (flag, serve_opts) = (AtomicBool::new(false), ServeOptions::default());
    let mut reply_bytes = Vec::new();
    for (q, line) in queries.iter().zip(&lines) {
        let reply = tr.leaf("serve", "serve.handle_us", || {
            handle_request(&session, Some(&OsFs), line, &flag, &serve_opts)
        });
        reply_bytes.push(tr.leaf("serve", "serve.encode_us", || reply.encode()).len() as f64);
        verify(tr, out, q, &reply);
    }
    let reply_bytes = sorted(reply_bytes);
    out.metrics
        .set("serve.reply_bytes_mean", mean(&reply_bytes));
    out.metrics
        .set("serve.reply_bytes_p99", percentile(&reply_bytes, 99.0));
    drop(session);

    // Level 4: the hub's dispatcher, alternating recorder off and on.
    let hub = Arc::new(Hub::new(HubOptions::default()));
    tr.leaf("hub", "hub.open", || {
        hub.open(
            TENANT,
            tenant_spec(&tree.files, &ctx.work.join("snap-hub"), ctx.jobs),
        )
    })
    .map_err(|e| format!("hub open: {e}"))?;
    let reset = obj([
        ("cmd", "reload".into()),
        ("session", TENANT.into()),
        ("force", true.into()),
    ])
    .encode();
    // The replies are checked one level down and one level up; here only
    // the recorder differs between the two passes.
    let replay = |tr: &mut Tracer| -> f64 {
        tr.leaf("hub", "hub.reset", || dispatch(&hub, &reset));
        let t = Instant::now();
        for line in &lines {
            tr.leaf("hub", "hub.dispatch_us", || black_box(dispatch(&hub, line)));
        }
        t.elapsed().as_secs_f64()
    };
    let (mut plain, mut traced) = (0.0, 0.0);
    for _ in 0..2 {
        plain += tr.span(HARNESS, "bench.untraced", |tr| {
            tr.recording = false;
            let secs = replay(tr);
            tr.recording = true;
            secs
        });
        traced += replay(tr);
    }
    out.metrics.set("trace.overhead_ratio", traced / plain);

    // Level 5: the same requests over TCP from one client.
    let handle = hub_serve(Arc::clone(&hub), "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    tr.leaf("hub", "hub.reset", || dispatch(&hub, &reset));
    let mut client =
        Client::connect(&Endpoint::Tcp(handle.addr().to_string())).map_err(|e| e.to_string())?;
    for q in &queries {
        let request = oracle.request(q, TENANT);
        let reply = tr
            .leaf("hub", "hub.roundtrip", || client.request(&request))
            .map_err(|e| e.to_string())?;
        verify(tr, out, q, &reply);
    }
    drop(client);
    handle.stop();
    let round_trip_us = tr.self_secs("hub.roundtrip") / lines.len() as f64 * 1e6;
    // Only the traced replays left spans; the untraced ones recorded none.
    let dispatch_us = tr.self_secs("hub.dispatch_us") / tr.count("hub.dispatch_us") as f64 * 1e6;
    out.metrics
        .set("hub.transport_us", round_trip_us - dispatch_us);
    let counters = hub.tenant_counters(TENANT);
    out.metrics
        .set("hub.busy_refusals", counters.busy_rejections as f64);
    out.metrics.set("hub.evictions", counters.evictions as f64);
    out.metrics
        .set("hub.rehydrations", counters.rehydrations as f64);
    out.check(
        (
            counters.busy_rejections,
            counters.evictions,
            counters.rehydrations,
        ) == (0, 0, 0),
        || format!("hub refused, evicted or rehydrated: {counters:?}"),
    );
    drop(hub);

    // The dependence walk on a sealed graph, as `depend` queries run it.
    let db = &oracle.analysis().database;
    let warm = tr.leaf("core", "core.fixpoint_s", || {
        Warm::from_database(db, SolveOptions::default())
    });
    let sealed = tr.leaf("core", "core.seal_s", || warm.seal());
    let walk = DependenceAnalysis::new(db, &sealed);
    let mut targets: Vec<usize> = queries
        .iter()
        .filter_map(|q| {
            if let Query::Depend(t) = q {
                Some(*t)
            } else {
                None
            }
        })
        .collect();
    targets.sort_unstable();
    targets.dedup();
    targets.truncate(DEPEND_SAMPLES);
    let mut dependents = Vec::new();
    for &t in &targets {
        let report = tr.leaf("depend", "depend.analyze_us", || {
            walk.analyze(&oracle.pool[t], &DependOptions::default())
        });
        dependents.push(report.map_or(0, |r| r.dependents().len()) as f64);
        let batch = tr.leaf(HARNESS, "bench.verify", || oracle.depend(&oracle.pool[t]));
        out.check(
            batch.map(|d| d.count as f64) == dependents.last().copied(),
            || {
                format!(
                    "depend {}: sealed walk and batch walk disagree",
                    oracle.pool[t]
                )
            },
        );
    }
    out.metrics.set("depend.dependents_mean", mean(&dependents));

    // Waking an evicted tenant: two tenants in a hub with room for one.
    let small = Hub::new(HubOptions {
        capacity: 1,
        ..HubOptions::default()
    });
    for name in ["a", "b"] {
        tr.leaf("hub", "hub.open", || {
            small.open(
                name,
                tenant_spec(
                    &tree.files,
                    &ctx.work.join(format!("snap-{name}")),
                    ctx.jobs,
                ),
            )
        })
        .map_err(|e| format!("hub open {name}: {e}"))?;
    }
    // Tenant counters live in the process-wide registry under the tenant's
    // name, so only their growth belongs to this hub.
    let woken =
        || small.tenant_counters("a").rehydrations + small.tenant_counters("b").rehydrations;
    let before = woken();
    for i in 0..REHYDRATIONS {
        let name = if i % 2 == 0 { "a" } else { "b" };
        tr.leaf("hub", "hub.rehydrate_ms", || {
            small.with_session(name, |s, _| s.snapshot().1)
        })
        .map_err(|e| format!("rehydrate {name}: {e}"))?;
    }
    let woken = woken() - before;
    out.check(woken == REHYDRATIONS as u64, || {
        format!("{woken} rehydrations in {REHYDRATIONS} wake-ups")
    });
    Ok(())
}
