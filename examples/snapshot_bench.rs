//! Cold vs warm start through a persistent snapshot, at benchmark scale.
//!
//! ```sh
//! cargo run --release --example snapshot_bench -- nethack 1.0
//! ```
//!
//! Generates a workload calibrated to one of the paper's Table 2 rows and
//! measures the two ways an analysis server can become query-ready:
//!
//! * **cold** — no snapshot: compile every source, link, and solve
//!   (exactly what `analyze` does on first contact with a program);
//! * **warm** — a valid snapshot exists: hash the linked object to check
//!   provenance, load the sealed graph and symbol table from the
//!   `.clasnap`, answer the first query. No compiler, no solver.
//!
//! The warm graph must answer every points-to query identically to the
//! fresh solve, and must be at least 10x faster to reach than the cold
//! path — that is the point of the subsystem, so the example fails if
//! either property regresses. Results land in `target/BENCH_snapshot.json`.

use cla::prelude::*;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "nethack".to_string());
    let scale: f64 = args
        .next()
        .map_or(1.0, |s| s.parse().expect("scale must be a number"));
    let out_path = args
        .next()
        .unwrap_or_else(|| "target/BENCH_snapshot.json".to_string());

    let spec = by_name(&name).unwrap_or_else(|| {
        eprintln!(
            "unknown benchmark `{name}`; available: {}",
            PAPER_BENCHMARKS
                .iter()
                .map(|b| b.name)
                .collect::<Vec<_>>()
                .join(", ")
        );
        std::process::exit(1);
    });

    println!("generating `{name}` at scale {scale} ...");
    let workload = generate(
        spec,
        &GenOptions {
            scale,
            files: 8,
            ..Default::default()
        },
    );
    let mut fs = MemoryFs::new();
    for (p, c) in &workload.files {
        fs.add(p.clone(), c.clone());
    }
    let files: Vec<String> = workload
        .source_files()
        .iter()
        .map(|s| s.to_string())
        .collect();
    let refs: Vec<&str> = files.iter().map(String::as_str).collect();
    println!(
        "  {} files, {} lines, {} bytes",
        files.len(),
        workload.total_lines(),
        workload.total_bytes()
    );

    let work_dir = std::env::temp_dir().join(format!("cla-snap-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work_dir);
    std::fs::create_dir_all(&work_dir)?;
    let object_path = work_dir.join("prog.clao");
    let snap_path = work_dir.join(cla::snap::SNAPSHOT_FILE);

    // ---- cold: sources -> solved graph (and persist object + snapshot) --
    let t0 = Instant::now();
    let analysis = analyze(&fs, &refs, &PipelineOptions::default())?;
    let cold_secs = t0.elapsed().as_secs_f64();
    let r = &analysis.report;
    println!(
        "cold start: {:>8.1} ms  (compile {:.1} ms, link {:.1} ms, solve {:.1} ms)",
        cold_secs * 1e3,
        r.compile_time.as_secs_f64() * 1e3,
        r.link_time.as_secs_f64() * 1e3,
        r.solve_time.as_secs_f64() * 1e3,
    );

    let db = &analysis.database;
    let object_bytes = db.bytes();
    std::fs::write(&object_path, object_bytes)?;
    let opts = SolveOptions::default();
    let sealed_cold = cla::core::Warm::from_database(db, opts).seal();
    let object_names: Vec<String> = db.ids().map(|o| db.name(o).to_owned()).collect();
    let prov = cla::serve::object_provenance(
        &object_path.display().to_string(),
        cla::cladb::fnv64(object_bytes),
        opts,
    );
    let t0 = Instant::now();
    let snapshot_bytes = cla::snap::save_snapshot(&snap_path, &prov, &sealed_cold, &object_names)?;
    let save_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!("snapshot: {snapshot_bytes} bytes written in {save_ms:.1} ms");

    // ---- warm: snapshot -> query-ready graph ----------------------------
    // What a restarted server does: re-hash the object it is asked to
    // serve, check it against the snapshot's provenance, then load the
    // sealed graph and symbol table straight from disk.
    let t0 = Instant::now();
    let current = std::fs::read(&object_path)?;
    let expect = cla::serve::object_provenance(
        &object_path.display().to_string(),
        cla::cladb::fnv64(&current),
        opts,
    );
    let snap = cla::snap::Snapshot::open(&snap_path)?;
    assert_eq!(snap.provenance(), &expect, "stale snapshot");
    let sealed_warm = snap.load_sealed()?;
    let warm_names = snap.names()?;
    let warm_secs = t0.elapsed().as_secs_f64();
    println!(
        "warm start: {:>8.1} ms  (provenance check + snapshot load)",
        warm_secs * 1e3
    );

    // ---- observational exactness ----------------------------------------
    assert_eq!(warm_names, object_names, "symbol table differs");
    let mut first_query_us = 0.0;
    let mut checked = 0usize;
    for o in (0..object_names.len() as u32).map(cla::ir::ObjId) {
        let t0 = Instant::now();
        let warm_set = sealed_warm.points_to(o);
        if checked == 0 {
            first_query_us = t0.elapsed().as_secs_f64() * 1e6;
        }
        assert_eq!(
            warm_set,
            sealed_cold.points_to(o),
            "pts({}) differs across the round trip",
            object_names[o.0 as usize]
        );
        assert_eq!(
            warm_set,
            analysis.points_to.points_to(o),
            "pts({}) differs from the pipeline solve",
            object_names[o.0 as usize]
        );
        checked += 1;
    }
    let speedup = cold_secs / warm_secs;
    println!(
        "checked {checked} points-to sets: identical; first query {first_query_us:.1} us; \
         warm speedup {speedup:.0}x"
    );

    let json = format!(
        "{{\n  \"benchmark\": \"{name}\",\n  \"scale\": {scale},\n  \"files\": {},\n  \
         \"source_bytes\": {},\n  \"objects\": {},\n  \"cold_ms\": {:.3},\n  \
         \"warm_ms\": {:.3},\n  \"speedup\": {:.1},\n  \"snapshot_bytes\": {snapshot_bytes},\n  \
         \"save_ms\": {save_ms:.3},\n  \"first_query_us\": {first_query_us:.1}\n}}\n",
        files.len(),
        workload.total_bytes(),
        object_names.len(),
        cold_secs * 1e3,
        warm_secs * 1e3,
        speedup,
    );
    if let Some(parent) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(&out_path, json)?;
    println!("wrote {out_path}");

    let _ = std::fs::remove_dir_all(&work_dir);
    assert!(
        speedup >= 10.0,
        "warm start only {speedup:.1}x faster than cold — below the 10x floor"
    );
    Ok(())
}
