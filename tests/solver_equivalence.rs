//! Randomized cross-solver equivalence.
//!
//! Random constraint systems are generated directly as [`CompiledUnit`]s
//! (arbitrary mixes of the five primitive forms over a small variable set),
//! then solved by:
//!
//! * the deductive oracle (a literal transcription of Figure 2),
//! * the pre-transitive solver in all four ablation configurations, through
//!   each of its three exits (the batch relation, the sealed graph, and the
//!   relation extracted from the sealed graph),
//! * the pre-transitive solver in demand-loading mode (through a serialized
//!   object file),
//! * the worklist Andersen baseline,
//! * Steensgaard (checked for over-approximation only).
//!
//! Cases come from a fixed-seed SplitMix64 stream, so every run checks the
//! same corpus and failures reproduce exactly. The random systems have at
//! most ten variables; `large_systems_agree` adds layered ones of 300 to
//! 2 000, where lval sets run to hundreds of elements and the solver's
//! union shares, probes, marks and merges instead of returning a singleton.

use cla::core::{deductive, steensgaard, worklist};
use cla::ir::{ObjectInfo, PrimAssign, SrcLoc};
use cla::prelude::*;
use cla::workload::SplitMix64;

/// Builds a unit with `nvars` variables and the given raw assignments
/// (kind, dst, src).
fn build_unit(nvars: u32, assigns: &[(u8, u32, u32)]) -> CompiledUnit {
    let mut unit = CompiledUnit::new("prop.c");
    for i in 0..nvars {
        unit.push_object(ObjectInfo::global(
            format!("v{i}"),
            ObjKind::Var,
            "int *",
            SrcLoc::NONE,
        ));
    }
    for &(kind, dst, src) in assigns {
        unit.push_assign(PrimAssign {
            kind: match kind % 5 {
                0 => AssignKind::Copy,
                1 => AssignKind::Addr,
                2 => AssignKind::Store,
                3 => AssignKind::Load,
                _ => AssignKind::StoreLoad,
            },
            dst: cla::ir::ObjId(dst % nvars),
            src: cla::ir::ObjId(src % nvars),
            strength: Strength::Strong,
            op: cla::ir::OpKind::Direct,
            loc: SrcLoc::NONE,
        });
    }
    unit
}

/// Restricts a PointsTo to the first `nvars` real objects (solvers may add
/// internal split nodes beyond them).
fn sets(p: &cla::core::PointsTo, nvars: u32) -> Vec<Vec<cla::ir::ObjId>> {
    (0..nvars)
        .map(|i| p.points_to(cla::ir::ObjId(i)).to_vec())
        .collect()
}

fn random_assigns(rng: &mut SplitMix64, count: usize, var_bound: u32) -> Vec<(u8, u32, u32)> {
    (0..count)
        .map(|_| {
            (
                rng.random_range(0..5u32) as u8,
                rng.random_range(0..var_bound),
                rng.random_range(0..var_bound),
            )
        })
        .collect()
}

/// Holds every solver, and every route out of the pre-transitive one,
/// against the deductive oracle on one constraint system.
fn check_all_solvers(unit: &CompiledUnit, nvars: u32, label: &str) {
    let oracle = deductive::solve_oracle(unit);
    let expected = sets(&oracle, nvars);
    check_pretransitive(unit, nvars, &expected, label);

    let wl = worklist::solve(unit);
    assert_eq!(sets(&wl, nvars), expected, "worklist diverged on {label}");

    // Steensgaard must over-approximate.
    let st = steensgaard::solve(unit);
    assert!(
        oracle.subsumed_by(&st),
        "Steensgaard under-approximated on {label}"
    );
}

/// The pre-transitive solver in its four configurations, through its three
/// exits, and demand-loaded from an object file, against `expected`.
fn check_pretransitive(
    unit: &CompiledUnit,
    nvars: u32,
    expected: &[Vec<cla::ir::ObjId>],
    label: &str,
) {
    for (cache, cycle) in [(true, true), (true, false), (false, true), (false, false)] {
        let opts = SolveOptions {
            cache,
            cycle_elim: cycle,
        };
        let config = format!("pre-transitive cache={cache} cycle={cycle}");
        let (got, _) = solve_unit(unit, opts);
        assert_eq!(sets(&got, nvars), expected, "{config} diverged on {label}");
        // Without caching the solver frees each set before computing the
        // next, so allocations get reused while the graph is sealed: every
        // variable must still come out with its own set.
        let sealed = cla::core::Warm::from_unit(unit, opts).seal();
        let sealed_sets: Vec<Vec<cla::ir::ObjId>> = (0..nvars)
            .map(|i| sealed.points_to(cla::ir::ObjId(i)).to_vec())
            .collect();
        assert_eq!(
            sealed_sets, expected,
            "{config}, sealed, diverged on {label}"
        );
        let extracted = sealed.extract_points_to(&unit.objects);
        assert_eq!(
            sets(&extracted, nvars),
            expected,
            "{config}, extracted from sealed, diverged on {label}"
        );
    }

    // Demand-loading through a real object file.
    let db = Database::open(write_object(unit)).unwrap();
    let (dbp, _) = solve_database(&db, SolveOptions::default());
    assert_eq!(
        sets(&dbp, nvars),
        expected,
        "demand-loaded solve diverged on {label}"
    );
}

/// A layered system over `n` variables, shaped so that every path of the
/// solver's union runs and the naive configurations still finish: the first
/// half are address-taken targets; twelve hubs each take the address of
/// about 40 % of them (sets of `0.2 n` lvals and up); three layers of
/// copies, two or three sources a node, sit on the hubs (joins of large,
/// overlapping sets, at most 3·3·2 paths to a leaf) and every node of them
/// takes one address itself (a lone lval against a large set, new to it or
/// not); part of the first layer
/// is tied into five-node copy rings (cycles the first traversal collapses);
/// and a few `pp = &a; b = a; *pp = b; x = *pp; *qq = *pp` groups close
/// `a ⇄ b` only when a pass resolves the store (SCCs merged mid-solve).
fn layered_system(rng: &mut SplitMix64, n: u32) -> Vec<(u8, u32, u32)> {
    // The kinds, as `build_unit` numbers them.
    let (copy, addr, store, load, store_load) = (0u8, 1u8, 2u8, 3u8, 4u8);
    let targets = n / 2;
    let hubs = targets..targets + 12;
    // Three variables a group at the very top take part in nothing else, so
    // a `pp` points at exactly one variable.
    let groups = (n - hubs.end) / 40;
    let layer = (n - 3 * groups - hubs.end) / 3;
    let layers = [1, 2, 3].map(|k| hubs.end + (k - 1) * layer..hubs.end + k * layer);
    let mut pick = |range: &std::ops::Range<u32>| rng.random_range(range.clone());

    let mut out = Vec::new();
    for hub in hubs.clone() {
        out.extend((0..targets).filter_map(|t| (pick(&(0..10)) < 4).then_some((addr, hub, t))));
    }
    for (below, here) in [&hubs, &layers[0], &layers[1]].into_iter().zip(&layers) {
        for v in here.clone() {
            for _ in 0..pick(&(2..4)) {
                out.push((copy, v, pick(below)));
            }
            // One lval of its own, which the sets above it may hold already.
            out.push((addr, v, pick(&(0..targets))));
        }
    }
    for ring in layers[0].clone().step_by(5).take(8) {
        out.extend((0..5).map(|i| (copy, ring + i, ring + (i + 1) % 5)));
    }
    for k in 0..groups {
        let (pp, qq, x) = (n - 1 - 3 * k, n - 2 - 3 * k, n - 3 - 3 * k);
        let (a, b) = (pick(&layers[1]), layers[2].start + k);
        out.extend([
            (addr, pp, a),
            (addr, qq, b),
            (copy, b, a),
            (store, pp, b),
            (load, x, pp),
            (store_load, qq, pp),
        ]);
    }
    out
}

#[test]
fn large_systems_agree() {
    let mut rng = SplitMix64::seed_from_u64(0xc1a0_0004);
    for n in [100, 300, 700, 2_000] {
        let unit = build_unit(n, &layered_system(&mut rng, n));
        let expected = sets(&worklist::solve(&unit), n);
        let label = format!("the layered system of {n} variables");
        check_pretransitive(&unit, n, &expected, &label);
        // The oracle is cubic: it gets the size it finishes in a second.
        if n == 100 {
            let oracle = deductive::solve_oracle(&unit);
            assert_eq!(sets(&oracle, n), expected, "oracle on {label}");
            continue;
        }

        // The system is the size it claims to be, and the solver met
        // cycles both on its first traversal and after a store resolved.
        let largest = expected.iter().map(Vec::len).max().unwrap();
        assert!(largest >= n as usize / 4, "{label}: largest set {largest}");
        let st = cla::core::Warm::from_unit(&unit, SolveOptions::default())
            .seal()
            .stats();
        assert!(st.passes >= 2, "{label}: {st:?}");
        assert!(st.unifications > 32, "{label}: {st:?}");
        assert!(st.sets_shared > u64::from(n) / 10, "{label}: {st:?}");
    }
}

#[test]
fn all_solvers_agree() {
    let mut rng = SplitMix64::seed_from_u64(0xc1a0_0001);
    for _case in 0..64 {
        let nvars = rng.random_range(3..10u32);
        let nassigns = rng.random_range(1..25usize);
        let assigns = random_assigns(&mut rng, nassigns, 10);
        let unit = build_unit(nvars, &assigns);
        check_all_solvers(&unit, nvars, &format!("{assigns:?}"));
    }

    // Forty pointers with forty distinct two-element sets (v_i = &v_{40+i},
    // v_i = &v_{40+i-1}): many same-sized allocations freed and reused in a
    // row, the allocator pattern that sealing without a cache must survive.
    let n = 40u32;
    let chain: Vec<(u8, u32, u32)> = (0..n)
        .flat_map(|i| [(1, i, n + i), (1, i, n + i.saturating_sub(1))])
        .collect();
    check_all_solvers(&build_unit(2 * n, &chain), 2 * n, "the address chain");
}

#[test]
fn object_file_roundtrip() {
    let mut rng = SplitMix64::seed_from_u64(0xc1a0_0002);
    for _case in 0..64 {
        let nvars = rng.random_range(1..12u32);
        let nassigns = rng.random_range(0..30usize);
        let assigns = random_assigns(&mut rng, nassigns, 12);
        let unit = build_unit(nvars, &assigns);
        let bytes = write_object(&unit);
        let db = Database::open(bytes).unwrap();
        let back = db.to_unit().unwrap();
        assert_eq!(&back.objects, &unit.objects);
        assert_eq!(back.assign_counts(), unit.assign_counts());
        // Every assignment survives (order may differ between sections).
        let mut a: Vec<_> = unit.assigns.clone();
        let mut b: Vec<_> = back.assigns.clone();
        let key = |x: &PrimAssign| (x.kind as u8, x.dst.0, x.src.0, x.loc.line);
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b);
    }
}

/// Source-level property: random tiny C programs through the whole
/// pipeline agree with the oracle.
#[test]
fn pipeline_matches_oracle_on_random_c() {
    let mut rng = SplitMix64::seed_from_u64(0xc1a0_0003);
    let vars = ["a", "b", "c", "d"];
    for _case in 0..48 {
        let nstmts = rng.random_range(1..15usize);
        let mut body = String::new();
        for _ in 0..nstmts {
            let kind = rng.random_range(0..5u32) as u8;
            let d = vars[rng.random_range(0..4usize)];
            let s = vars[rng.random_range(0..4usize)];
            match kind % 5 {
                0 => body.push_str(&format!("{d} = {s};\n")),
                1 => body.push_str(&format!("{d} = (int *) &{s};\n")),
                2 => body.push_str(&format!("*(int **){d} = {s};\n")),
                3 => body.push_str(&format!("{d} = *(int **){s};\n")),
                _ => body.push_str(&format!("*(int **){d} = *(int **){s};\n")),
            }
        }
        let src = format!("int *a, *b, *c, *d;\nvoid f(void) {{\n{body}}}\n");
        let unit = compile_source(&src, "prop.c", &LowerOptions::default()).unwrap();
        let oracle = cla::core::deductive::solve_oracle(&unit);
        let (got, _) = solve_unit(&unit, SolveOptions::default());
        assert_eq!(&got, &oracle, "mismatch on program:\n{src}");
    }
}
