//! Micro-benchmarks of the system's kernels: lexing, parsing, lowering,
//! object-file encode/decode, the three solvers, the solver's set algebra,
//! the dependence index and the wire parser.
//!
//! Self-timed (median of repeated runs) rather than statistics-heavy: the
//! harness needs to run in minimal environments with no benchmarking
//! dependencies.

use std::hint::black_box;
use std::time::{Duration, Instant};

use cla_cfront::{lexer, parser, pp, FileId, MemoryFs, PpOptions};
use cla_cladb::{write_object, Database};
use cla_core::pipeline::{analyze, PipelineOptions};
use cla_core::{solve_database, solve_unit, steensgaard, worklist, LvalStore, SolveOptions, Warm};
use cla_depend::{DependOptions, DependenceAnalysis, FlowIndex};
use cla_ir::{compile_file, lower_unit, CompiledUnit, LowerOptions};
use cla_workload::{by_name, generate, GenOptions};

/// Runs `f` repeatedly and prints the median per-iteration time.
fn bench<R>(name: &str, mut f: impl FnMut() -> R) {
    let (median, samples) = median_of(|| (), |()| f());
    println!("{name:32} {median:>12.2?}   ({samples} samples)");
}

/// [`bench`] for a front-end stage: `setup` builds the stage's input outside
/// the clock, and the row adds the cost per preprocessed token.
fn bench_per_token<I, R>(
    name: &str,
    tokens: usize,
    setup: impl FnMut() -> I,
    f: impl FnMut(I) -> R,
) {
    let (median, samples) = median_of(setup, f);
    let per_token = median.as_nanos() as f64 / tokens as f64;
    println!("{name:32} {median:>12.2?}   ({samples} samples)   {per_token:6.1} ns/token");
}

/// Warms up, then times individual iterations of `f` until there are 20
/// samples or ~2s have been spent, whichever comes first.
fn median_of<I, R>(mut setup: impl FnMut() -> I, mut f: impl FnMut(I) -> R) -> (Duration, usize) {
    for _ in 0..2 {
        black_box(f(setup()));
    }
    let mut samples = Vec::new();
    let budget = Instant::now();
    while samples.len() < 20 && budget.elapsed() < Duration::from_secs(2) {
        let input = setup();
        let t = Instant::now();
        black_box(f(input));
        samples.push(t.elapsed());
    }
    samples.sort();
    (samples[samples.len() / 2], samples.len())
}

/// A mid-size program used by every micro-benchmark (vortex profile at 2%).
fn sample_program() -> (CompiledUnit, String) {
    let spec = by_name("vortex").unwrap();
    let w = generate(
        spec,
        &GenOptions {
            scale: 0.02,
            files: 4,
            ..Default::default()
        },
    );
    let mut fs = MemoryFs::new();
    for (p, c) in &w.files {
        fs.add(p.clone(), c.clone());
    }
    let mut units = Vec::new();
    for f in w.source_files() {
        units.push(
            compile_file(&fs, f, &PpOptions::default(), &LowerOptions::default())
                .expect("compile")
                .0,
        );
    }
    let (program, _) = cla_cladb::link(&units, "bench");
    // A single concatenated source for frontend benches (without includes).
    let src = w
        .files
        .iter()
        .filter(|(p, _)| p.ends_with(".c"))
        .map(|(_, c)| {
            c.lines()
                .filter(|l| !l.starts_with("#include"))
                .collect::<Vec<_>>()
                .join("\n")
        })
        .collect::<Vec<_>>()
        .join("\n");
    (program, src)
}

fn bench_frontend(src: &str) {
    // A deduplicated single file parses standalone (each file redefines the
    // shared pool), so lex+parse just the first file's worth.
    let first: String = src.lines().take(2000).collect::<Vec<_>>().join("\n");
    bench("lex", || {
        lexer::lex(black_box(&first), FileId(0)).unwrap().len()
    });
    let toks = lexer::lex(&first, FileId(0)).unwrap();
    bench("parse", || {
        parser::parse(toks.clone(), "bench.c").map(|tu| tu.items.len())
    });
    bench_frontend_unit();
}

/// The front-end stages and lowering on one translation unit of the
/// million-line shape (a generated file plus the header every file
/// includes), per token.
fn bench_frontend_unit() {
    let profile = cla_genc::Profile::parse("total_loc = 24000\nfiles = 8\n").unwrap();
    let mut fs = MemoryFs::new();
    cla_genc::generate_with(&profile, 1, &mut |name, text| {
        fs.add(name.to_owned(), text.to_owned());
        Ok(())
    })
    .unwrap();
    let unit = cla_genc::file_name(&profile, 0);
    let opts = PpOptions::default();
    let tokens = pp::preprocess(&fs, &unit, &opts).unwrap().stats.tokens_out;
    bench_per_token(
        "pp_unit",
        tokens,
        || (),
        |()| pp::preprocess(&fs, &unit, &opts).unwrap().stats.tokens_out,
    );
    bench_per_token(
        "parse_unit",
        tokens,
        || pp::preprocess(&fs, &unit, &opts).unwrap().tokens,
        |toks| parser::parse_with(toks, unit.as_str(), &opts.limits).map(|tu| tu.items.len()),
    );
    let pre = pp::preprocess(&fs, &unit, &opts).unwrap();
    let tu = parser::parse_with(pre.tokens, unit.as_str(), &opts.limits).unwrap();
    let lower = LowerOptions::default();
    bench_per_token(
        "lower_unit",
        tokens,
        || (),
        |()| lower_unit(&tu, &pre.sources, &lower).assigns.len(),
    );
}

fn bench_database(program: &CompiledUnit) {
    bench("object_file_write", || {
        write_object(black_box(program)).len()
    });
    let bytes = write_object(program);
    bench("object_file_open", || {
        Database::open(black_box(bytes.clone()))
            .unwrap()
            .objects()
            .len()
    });
    let db = Database::open(bytes).unwrap();
    let n = db.objects().len() as u32;
    let mut i = 0u32;
    bench("block_fetch", || {
        i = (i + 97) % n;
        db.block(cla_ir::ObjId(i)).unwrap().len()
    });
}

fn bench_solvers(program: &CompiledUnit) {
    let bytes = write_object(program);
    bench("solve_pretransitive", || {
        solve_unit(black_box(program), SolveOptions::default())
            .0
            .relations()
    });
    bench("solve_pretransitive_demand", || {
        let db = Database::open(bytes.clone()).unwrap();
        solve_database(&db, SolveOptions::default()).0.relations()
    });
    bench("solve_pretransitive_nocache", || {
        solve_unit(
            black_box(program),
            SolveOptions {
                cache: false,
                cycle_elim: true,
            },
        )
        .0
        .relations()
    });
    bench("solve_worklist", || {
        worklist::solve(black_box(program)).relations()
    });
    bench("solve_steensgaard", || {
        steensgaard::solve(black_box(program)).relations()
    });
}

/// The solver's set algebra: a union that is answered by sharing its
/// largest part, one that has to write a new set, and the all-variables
/// sweep they add up to on the program `clabench table3_analyze` solves.
fn bench_lval_algebra() {
    let ids = |range: std::ops::Range<u32>, step: usize| -> Vec<cla_ir::ObjId> {
        range.step_by(step).map(cla_ir::ObjId).collect()
    };
    let mut store = LvalStore::default();
    let big = store.union(&mut [], &ids(0..60_000, 3));
    let inside = store.union(&mut [], &ids(0..60_000, 30));
    let beside = store.union(&mut [], &ids(1..60_000, 30));
    // Eight successors with the one large set, one with a subset of it, and
    // base lvals it already holds: nothing is new, nothing is written.
    bench("lval_union_share", || {
        let mut parts = vec![big.clone(); 8];
        parts.push(inside.clone());
        store.union(&mut parts, &ids(0..3_000, 300)).len()
    });
    // The same, and one successor whose 2 000 lvals the large set lacks.
    bench("lval_union_merge", || {
        let mut parts = vec![big.clone(); 8];
        parts.extend([inside.clone(), beside.clone()]);
        store.union(&mut parts, &ids(1..3_000, 300)).len()
    });

    let spec = by_name("lucent").unwrap();
    let w = generate(spec, &GenOptions::at_scale(0.7));
    let mut fs = MemoryFs::new();
    for (p, c) in &w.files {
        fs.add(p.clone(), c.clone());
    }
    let units: Vec<CompiledUnit> = (w.source_files().iter())
        .map(|f| {
            compile_file(&fs, f, &PpOptions::default(), &LowerOptions::default())
                .expect("compile")
                .0
        })
        .collect();
    let db = Database::open(write_object(&cla_cladb::link(&units, "lucent").0)).unwrap();
    bench("solve_sweep_lucent", || {
        Warm::from_database(&db, SolveOptions::default())
            .extract_points_to(db.objects())
            .relations()
    });
}

/// The dependence walk on the tree `clabench` keeps resident (52 500 lines
/// in 16 files): building the index, a one-shot `new().analyze()` that pays
/// for the build, and a query against an index that exists.
fn bench_depend() {
    let profile = cla_genc::Profile::parse(
        "name = \"mid\"\ntotal_loc = 52500\nfiles = 16\ncall_fanout = 3.0\ncall_depth = 8\n\
         cross_file_fraction = 0.15\nindirect_call_rate = 0.03\npointer_density = 0.30\n\
         struct_types = 96\nstruct_field_ptr_mix = 0.5\nglobal_traffic = 0.06\n",
    )
    .unwrap();
    let (mut fs, mut files) = (MemoryFs::new(), Vec::new());
    cla_genc::generate_with(&profile, 1, &mut |name, text| {
        fs.add(name.to_owned(), text.to_owned());
        if name.ends_with(".c") {
            files.push(name.to_owned());
        }
        Ok(())
    })
    .unwrap();
    let files: Vec<&str> = files.iter().map(String::as_str).collect();
    let mid = analyze(&fs, &files, &PipelineOptions::default()).expect("analyze");
    let (db, pts) = (mid.database, mid.points_to);
    let mut targets: Vec<&str> = db.target_names().collect();
    targets.sort_unstable();
    let targets: Vec<&str> = targets.into_iter().step_by(101).collect();
    let opts = DependOptions::default();
    let mut next = 0;
    let mut target = || {
        next = (next + 1) % targets.len();
        targets[next]
    };

    bench("depend_index_build_mid", || {
        FlowIndex::build(&db, &pts).unwrap().edges()
    });
    bench("depend_oneshot_mid", || {
        let report = DependenceAnalysis::new(&db, &pts).analyze(target(), &opts);
        report.unwrap().dependents().len()
    });
    let dep = DependenceAnalysis::new(&db, &pts);
    // One turn through the targets per sample, so the row is their mean.
    let (turn, samples) = median_of(
        || (),
        |()| {
            (0..targets.len())
                .map(|_| dep.analyze(target(), &opts).unwrap().dependents().len())
                .sum::<usize>()
        },
    );
    let index = FlowIndex::build(&db, &pts).unwrap();
    println!(
        "{:32} {:>12.2?}   ({samples} samples, mean of {} targets; {} edges, {} bytes)",
        "depend_query_mid",
        turn / targets.len() as u32,
        targets.len(),
        index.edges(),
        index.bytes()
    );
}

/// One `points-to` reply of about 100 KB, the size the wire parser used to
/// need 60 ms for.
fn bench_json() {
    use cla_serve::json::{obj, parse, Value};
    let targets: Vec<Value> = (0..3_200u64)
        .map(|id| obj([("id", id.into()), ("name", format!("gv{id}_field").into())]))
        .collect();
    let line = obj([("ok", true.into()), ("targets", Value::Arr(targets))]).encode();
    bench("json_parse_100k", || parse(black_box(&line)).is_ok());
    println!("{:32} ({} bytes)", "", line.len());
}

fn main() {
    cla_bench::header("micro-benchmarks: frontend, database, solver kernels");
    let (program, src) = sample_program();
    bench_frontend(&src);
    bench_database(&program);
    bench_solvers(&program);
    bench_lval_algebra();
    bench_depend();
    bench_json();
}
