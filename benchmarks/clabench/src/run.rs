//! The untraced runs: what a user of the system sees. No `cla-obs` sink, no
//! profiler, no harness spans.

use crate::child::{num, Kid, TENANT};
use crate::inputs::{self, generate_tree, write_manifest, QueryStream, Tree};
use crate::metrics::{Metrics, END_TO_END};
use crate::oracle::{Digest, Oracle};
use crate::pinned;
use crate::stats::{median, percentile, sorted};
use crate::{Ctx, Outcome};
use cla::prelude::*;
use cla::serve::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

pub fn run(ctx: &Ctx, workload: &str) -> Result<Outcome, String> {
    match workload {
        "million_cold" => batch_tree(ctx, false),
        "million_warm" => batch_tree(ctx, true),
        "table3_analyze" => table3(ctx),
        "edit_reload" => edit_reload(ctx),
        "hub_queries" => hub_queries(ctx),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Runs `pass` the given number of times and keeps the last result; set-up
/// time is the median pass.
fn set_up<T>(
    passes: usize,
    mut pass: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..passes.max(1) {
        // The earlier pass goes first: two live sessions would share files.
        drop(kept.take());
        let t = Instant::now();
        kept = Some(pass()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one pass"), median(&sorted(times))))
}

/// Starts a set-up pass from an empty work directory (no snapshot or cache
/// of an earlier pass to warm-start from), then generates the tree.
fn tree_and_manifest(
    ctx: &Ctx,
    spec: &inputs::TreeSpec,
    seed: u64,
) -> Result<(Tree, String), String> {
    ctx.fresh_work()?;
    let tree =
        generate_tree(spec, seed, &ctx.work.join("tree")).map_err(|e| format!("generate: {e}"))?;
    let manifest = ctx.work.join("files.txt");
    write_manifest(&manifest, &tree.files).map_err(|e| format!("manifest: {e}"))?;
    Ok((tree, manifest.display().to_string()))
}

/// Repeats `op` until the time box or the cap is reached. One rep ahead of
/// the clock is thrown away: it warms the file cache, and on a virtual
/// machine it is the rep that first touches memory the host had not backed
/// yet (seen to double the time of an 850 MB solve).
fn timed_reps(
    ctx: &Ctx,
    cap: usize,
    mut op: impl FnMut() -> Result<Value, String>,
) -> Result<(Vec<Value>, f64), String> {
    if !ctx.quick {
        op()?;
    }
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < cap && (reps.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds) {
        reps.push(op()?);
    }
    Ok((reps, start.elapsed().as_secs_f64()))
}

/// The end-to-end numbers of a batch workload from its child reports: the
/// median rep, the slowest rep, reps per second, and the median footprint.
fn batch_metrics(out: &mut Outcome, reps: &[Value], wall_s: f64) -> Result<(), String> {
    let column = |key: &str| -> Result<Vec<f64>, String> {
        Ok(sorted(
            reps.iter().map(|r| num(r, key)).collect::<Result<_, _>>()?,
        ))
    };
    let secs = column("secs")?;
    out.metrics.set("op_p50_ms", median(&secs) * 1e3);
    out.metrics.set("op_tail_ms", secs[secs.len() - 1] * 1e3);
    out.metrics.set("ops_per_s", reps.len() as f64 / wall_s);
    out.metrics.set("peak_rss_mb", median(&column("rss_mb")?));
    out.note(format!(
        "{} reps, {:.3} s to {:.3} s each",
        reps.len(),
        secs[0],
        secs[secs.len() - 1]
    ));
    Ok(())
}

/// Every rep must report the same value under each of `keys`, and the same
/// as `reference` when there is one.
fn agree(out: &mut Outcome, reps: &[Value], reference: Option<&Value>, keys: &[&str]) {
    let first = reference.unwrap_or(&reps[0]);
    for key in keys {
        let same = reps.iter().all(|r| r.get(key) == first.get(key));
        out.check(same, || {
            let seen: Vec<String> = reps.iter().map(|r| format!("{:?}", r.get(key))).collect();
            format!(
                "`{key}` differs between runs: {:?} vs {seen:?}",
                first.get(key)
            )
        });
    }
}

const RELATION_KEYS: &[&str] = &[
    "relations",
    "pointer_variables",
    "variables",
    "assigns",
    "object_bytes",
    "fingerprint",
];

fn batch_tree(ctx: &Ctx, warm: bool) -> Result<Outcome, String> {
    let mut out = Outcome::new(Metrics::new(END_TO_END));
    let (cache, snap) = (ctx.work.join("cache"), ctx.work.join("snap"));
    let (cache, snap) = (cache.display().to_string(), snap.display().to_string());
    let jobs = ctx.jobs.to_string();
    // Warm set-up includes the run that fills the cache and the snapshot
    // store; at ~6 s it runs once, where the cold set-up repeats.
    let passes = if warm { 1 } else { ctx.sizes.setup_passes };
    let ((tree, manifest, populate), setup_s) = set_up(passes, || {
        let (tree, manifest) = tree_and_manifest(ctx, &ctx.sizes.big, ctx.seed)?;
        let populate = warm
            .then(|| Kid::run_once(&["analyze", &manifest, &jobs, &cache, &snap]))
            .transpose()?;
        Ok((tree, manifest, populate))
    })?;
    out.metrics.set("setup_s", setup_s);

    let args: Vec<&str> = if warm {
        vec!["analyze", &manifest, &jobs, &cache, &snap]
    } else {
        vec!["analyze", &manifest, &jobs]
    };
    let (reps, wall_s) = timed_reps(ctx, ctx.sizes.max_reps, || Kid::run_once(&args))?;
    out.attempted += reps.len() as u64;
    batch_metrics(&mut out, &reps, wall_s)?;

    agree(&mut out, &reps, populate.as_ref(), RELATION_KEYS);
    let hits = if warm { tree.files.len() } else { 0 };
    for r in &reps {
        out.check(
            r.get("quarantined").and_then(Value::as_u64) == Some(0)
                && r.get("cache_hits").and_then(Value::as_u64) == Some(hits as u64)
                && r.get("snapshot_loaded").and_then(Value::as_bool) == Some(warm),
            || format!("unexpected route: {}", r.encode()),
        );
    }
    if let Some(p) = &populate {
        out.check(
            p.get("cache_hits").and_then(Value::as_u64) == Some(0)
                && p.get("snapshot_loaded").and_then(Value::as_bool) == Some(false),
            || format!("populate run was not cold: {}", p.encode()),
        );
    }
    if !ctx.quick && ctx.seed == 1 {
        pinned::check_million(&mut out, &tree.report, &reps[0]);
    }
    Ok(out)
}

fn table3(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::new(Metrics::new(END_TO_END));
    let (name, scale) = ctx.sizes.table;
    let object = ctx.work.join("program.clao");
    let (_, setup_s) = set_up(1, || {
        let program = inputs::build_table_program(name, scale, ctx.seed)?;
        std::fs::write(&object, &program.object).map_err(|e| format!("{}: {e}", object.display()))
    })?;
    out.metrics.set("setup_s", setup_s);

    let object = object.display().to_string();
    let (reps, wall_s) = timed_reps(ctx, ctx.sizes.max_reps, || {
        Kid::run_once(&["solve", &object])
    })?;
    out.attempted += reps.len() as u64;
    batch_metrics(&mut out, &reps, wall_s)?;
    agree(
        &mut out,
        &reps,
        None,
        &["relations", "pointer_variables", "fingerprint", "passes"],
    );
    // The link order moves with the seed; the relation must not.
    let field = |key: &str| reps[0].get(key).and_then(Value::as_u64);
    pinned::check_table(
        &mut out,
        name,
        scale,
        field("relations"),
        field("pointer_variables"),
    );
    Ok(out)
}

fn edit_reload(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::new(Metrics::new(END_TO_END));
    let snap = ctx.work.join("snap").display().to_string();
    let (mut kid, setup_s) = set_up(ctx.sizes.setup_passes, || {
        let (_, manifest) = tree_and_manifest(ctx, &ctx.sizes.mid, inputs::SERVED_TREE_SEED)?;
        let mut kid = Kid::spawn(&["edits", &manifest, &snap, &ctx.seed.to_string()])?;
        kid.report()?;
        Ok(kid)
    })?;
    out.metrics.set("setup_s", setup_s);

    let cap = ctx.sizes.max_edits.min(1_000_000);
    kid.tell(&format!("go {} {cap}", ctx.seconds))?;
    let report = kid.report()?;
    kid.finish()?;

    let list = |key: &str| {
        report
            .get(key)
            .and_then(Value::as_arr)
            .unwrap_or(&[])
            .to_vec()
    };
    let latencies = sorted(
        list("latencies_ms")
            .iter()
            .filter_map(|v| {
                if let Value::Num(n) = v {
                    Some(*n)
                } else {
                    None
                }
            })
            .collect(),
    );
    if latencies.is_empty() {
        return Err(format!("edit child made no edit: {}", report.encode()));
    }
    out.attempted += latencies.len() as u64;
    for f in list("failures") {
        out.fail(f.as_str().unwrap_or("unreadable failure").to_string());
    }
    out.metrics.set("op_p50_ms", median(&latencies));
    out.metrics.set("op_tail_ms", percentile(&latencies, 90.0));
    out.metrics.set(
        "ops_per_s",
        latencies.len() as f64 / num(&report, "wall_s")?,
    );
    out.metrics.set("peak_rss_mb", num(&report, "rss_mb")?);
    out.note(format!("{} edits, tail is p90", latencies.len()));
    Ok(out)
}

/// What one client thread brings back.
#[derive(Default)]
struct ClientLog {
    latencies_ms: Vec<f64>,
    failures: Vec<String>,
    /// Digest of the first reply per `depend` target, by pool index.
    depend: BTreeMap<usize, Digest>,
}

fn client_loop(
    oracle: &Oracle,
    addr: &str,
    stream: QueryStream,
    seconds: f64,
    cap: usize,
) -> Result<ClientLog, String> {
    let mut client =
        Client::connect(&Endpoint::Tcp(addr.to_string())).map_err(|e| e.to_string())?;
    let mut log = ClientLog::default();
    let start = Instant::now();
    for q in stream {
        if log.latencies_ms.len() >= cap || start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let request = oracle.request(&q, TENANT);
        let t = Instant::now();
        let reply = client.request(&request);
        log.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match reply
            .map_err(|e| e.to_string())
            .and_then(|r| oracle.check(&q, &r))
        {
            Ok(None) => {}
            Ok(Some(digest)) => {
                let inputs::Query::Depend(target) = q else {
                    unreachable!("only depend replies are digested")
                };
                if *log.depend.entry(target).or_insert(digest) != digest {
                    log.failures.push(format!(
                        "depend {}: reply changed between requests",
                        oracle.pool[target]
                    ));
                }
            }
            Err(e) => log.failures.push(e),
        }
    }
    Ok(log)
}

fn hub_queries(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::new(Metrics::new(END_TO_END));
    let snap = ctx.work.join("snap").display().to_string();
    let ((oracle, mut kid, addr), setup_s) = set_up(ctx.sizes.setup_passes, || {
        let (tree, manifest) = tree_and_manifest(ctx, &ctx.sizes.mid, inputs::SERVED_TREE_SEED)?;
        let oracle = Oracle::build(&tree.refs(), ctx.seed)?;
        let mut kid = Kid::spawn(&["hub", &manifest, &snap])?;
        let ready = kid.report()?;
        let addr = ready
            .get("addr")
            .and_then(Value::as_str)
            .ok_or("hub child gave no address")?
            .to_string();
        Ok((oracle, kid, addr))
    })?;
    out.metrics.set("setup_s", setup_s);
    if !ctx.quick {
        pinned::check_mid(&mut out, oracle.relations());
    }

    // Closed loop: each client sends its next request when the reply to the
    // previous one is in, as a tool waiting for an answer does.
    let clients = ctx.jobs;
    let cap = ctx.sizes.max_requests.div_ceil(clients);
    let start = Instant::now();
    let logs: Vec<Result<ClientLog, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let stream = QueryStream::new(ctx.seed, c, oracle.pool.len());
                let (oracle, addr) = (&oracle, addr.as_str());
                scope.spawn(move || client_loop(oracle, addr, stream, ctx.seconds, cap))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();

    kid.tell("stop")?;
    let counters = kid.report()?;
    kid.finish()?;

    let mut latencies = Vec::new();
    let mut depend: BTreeMap<usize, Digest> = BTreeMap::new();
    for log in logs {
        let log = log?;
        latencies.extend(log.latencies_ms);
        log.failures.into_iter().for_each(|f| out.fail(f));
        for (target, digest) in log.depend {
            let same = *depend.entry(target).or_insert(digest) == digest;
            out.check(same, || {
                format!(
                    "depend {}: clients got different replies",
                    oracle.pool[target]
                )
            });
        }
    }
    let latencies = sorted(latencies);
    out.attempted += latencies.len() as u64;
    // Each distinct target once, after the clock has stopped.
    for (&target, digest) in &depend {
        let want = oracle.depend(&oracle.pool[target]);
        out.check(want == Some(*digest), || {
            format!(
                "depend {}: {digest:?}, oracle has {want:?}",
                oracle.pool[target]
            )
        });
    }
    for key in ["busy_refusals", "evictions", "rehydrations"] {
        out.check(counters.get(key).and_then(Value::as_u64) == Some(0), || {
            format!("hub counted {key}: {}", counters.encode())
        });
    }
    out.check(
        counters.get("requests").and_then(Value::as_u64) == Some(latencies.len() as u64),
        || {
            format!(
                "hub saw {} of {} requests",
                counters.encode(),
                latencies.len()
            )
        },
    );

    out.metrics.set("op_p50_ms", percentile(&latencies, 50.0));
    out.metrics.set("op_tail_ms", percentile(&latencies, 99.0));
    out.metrics
        .set("ops_per_s", latencies.len() as f64 / wall_s);
    out.metrics.set("peak_rss_mb", num(&counters, "rss_mb")?);
    out.note(format!(
        "{} requests from {clients} closed-loop clients, tail is p99, {} names in the pool, {} depend targets",
        latencies.len(),
        oracle.pool.len(),
        depend.len()
    ));
    Ok(out)
}
