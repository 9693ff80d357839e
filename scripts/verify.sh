#!/bin/sh
# Full offline verification: formatting, lints, release build, test suite.
# Run from the repository root; fails fast on the first broken step.
set -eu

cd "$(dirname "$0")/.."

# The grep guards read their files through read_rs, in this shell: a path
# that names nothing ends the script, so no guard passes because what it
# reads has moved or gone.
rs=$(mktemp)
trap 'rm -f "$rs" "$rs.files"' EXIT
# read_rs [--tests] PATH...: every file named, and every file under a
# directory named (subdirectories too), into $rs as `file:line:text`, each
# cut at its first `#[cfg(test)]` unless --tests. A missing file, a glob
# that matched nothing or an empty directory ends the script.
read_rs() {
    cut='/#\[cfg(test)\]/,$d'
    if [ "${1:-}" = --tests ]; then cut=''; shift; fi
    [ "$#" -gt 0 ] || { echo "verify: read_rs was given no path"; exit 1; }
    : > "$rs"
    for p in "$@"; do
        [ -e "$p" ] || { echo "verify: a guard reads $p, which names no file"; exit 1; }
        find "$p" -type f | LC_ALL=C sort > "$rs.files"
        [ -s "$rs.files" ] || { echo "verify: a guard reads $p, which holds no file"; exit 1; }
        while read -r f; do
            sed "$cut" "$f" | awk -v f="$f" '{ print f ":" NR ":" $0 }' >> "$rs"
        done < "$rs.files"
    done
}
# code: the lines of $rs that are not `//` comment lines.
code() { grep -vE '^[^:]*:[0-9]+:[[:space:]]*//' "$rs" || true; }
# matching ERE: the lines of stdin whose text (past `file:line:`) matches.
matching() { grep -E "^[^:]*:[0-9]+:.*($1)" || true; }
# calls ERE [EXCEPT]: `file:line:fn` for each line of $rs outside a `//`
# comment line whose text matches ERE (and not EXCEPT), fn being the last
# `fn` opened above it in its file. awk reads the patterns as they are.
calls() {
    RE=$1 EX=${2:-} awk '
        { f = $0; sub(/:.*/, "", f); t = substr($0, length(f) + 2)
          n = t; sub(/:.*/, "", n); t = substr(t, length(n) + 2) }
        f != file { file = f; fn = "" }
        t ~ /^ *\/\// { next }
        t ~ /fn [a-z_0-9]+/ { match(t, /fn [a-z_0-9]+/); fn = substr(t, RSTART + 3, RLENGTH - 3) }
        t ~ ENVIRON["RE"] && !(ENVIRON["EX"] != "" && t ~ ENVIRON["EX"]) { print f ":" n ":" fn }' "$rs"
}

echo "==> one build path (crates/serve spawns no compile workers and guards no compile)"
# core::pipeline owns the only compile pool and the only catch_unwind around
# a compile; what serve may keep is server.rs's per-connection guard.
read_rs crates/serve/src
second_pool=$(matching 'thread::scope|catch_unwind\(' < "$rs" \
    | grep -v '^crates/serve/src/server.rs:.*catch_unwind(AssertUnwindSafe(|| dispatch(' || true)
[ -z "$second_pool" ] || { echo "a second pool or guard grew back: $second_pool"; exit 1; }

echo "==> one container, one accept loop (cladb::container owns the file layout, serve::server owns accept)"
# .clao and .clasnap are parsed, verified and assembled by cladb/src/container.rs:
# no second cursor, and no table arithmetic outside it (fault.rs may rewrite
# tables through its codec; lib.rs re-exports the constant).
read_rs --tests crates/*/src
cursors=$(matching 'struct Cur\b' < "$rs" | grep -v '^crates/cladb/src/container.rs:' || true)
[ -z "$cursors" ] || { echo "a second read cursor grew back: $cursors"; exit 1; }
# The Unix server and the TCP hub run on serve::server's one Listener.
acceptors=$(matching '\.accept\(\)|\.incoming\(\)' < "$rs" | cut -d: -f1 | sort -u)
[ "$acceptors" = "crates/serve/src/server.rs" ] || { echo "accept loops in: $acceptors"; exit 1; }
read_rs --tests crates/*/src src
geometry=$(matching 'SECTION_ENTRY_SIZE' < "$rs" | cut -d: -f1 | sort -u \
    | grep -vE '^crates/cladb/src/(container|fault|lib)\.rs$' || true)
[ -z "$geometry" ] || { echo "section-table arithmetic outside the container: $geometry"; exit 1; }

echo "==> one dependence walk (FlowIndex::build makes the one pass over the blocks; a damaged one is an error, not a panic)"
# The per-query overlay decoded every block per query and unwrapped each one.
# What may read a block under crates/depend and crates/serve is build's loop.
read_rs crates/depend/src crates/serve/src
block_reads=$(matching 'expect\("valid database"\)|\.block\(' < "$rs")
[ "$(echo "$block_reads" | sed 's/:[0-9]*: */:/')" = 'crates/depend/src/lib.rs:for a in db.block(src)? {' ] \
    || { echo "block reads outside FlowIndex::build, or unwrapped: $block_reads"; exit 1; }

echo "==> one linker, adapters only (builds fold encoded unit objects; link and Linker wrap ObjectLinker)"
# No build route decodes an object to link it: core::pipeline, serve and hub
# go through cladb's ObjectLinker, and `cla-tool compile` through the
# pipeline's Build. `Linker::add_unit`, `link` and `Database::to_unit` stay
# for tests, crates/bench and clabench.
read_rs crates/core/src/pipeline crates/serve/src crates/hub/src
unit_links=$(matching '\.to_unit\(\)|add_unit\(' < "$rs")
[ -z "$unit_links" ] || { echo "a build route links decoded units: $unit_links"; exit 1; }
read_rs --tests src/bin/cla-tool
tool_links=$(matching '(^|[^.])\blink\(&|add_unit\(' < "$rs")
read_rs src/bin/cla-tool/build.rs
sed -n '/^[^:]*:[0-9]*:pub fn compile(/,/^[^:]*:[0-9]*:}/p' "$rs" | grep -q 'link_sources(' \
    && sed -n '/^[^:]*:[0-9]*:pub fn link_sources(/,/^[^:]*:[0-9]*:}/p' "$rs" | grep -q 'Build::new(' \
    && [ -z "$tool_links" ] \
    || { echo "cla-tool compile must link through pipeline::Build: $tool_links"; exit 1; }
# ObjectLinker is the one fold that merges symbols: linker.rs keeps no table
# of its own and builds no program object by object.
read_rs crates/cladb/src/linker.rs
second_fold=$(matching 'HashMap|push_object|push_assign' < "$rs")
[ -z "$second_fold" ] || { echo "a second symbol fold grew back in linker.rs: $second_fold"; exit 1; }
grep -q 'pub struct Linker(ObjectLinker);' "$rs" || { echo "Linker must wrap ObjectLinker"; exit 1; }

echo "==> one session recipe (servers build sessions with Session::open from a SessionSpec; the hub answers the request it parsed)"
# Session::open is the one place that decides sources vs. object and strict
# vs. lenient. `from_files_jobs` and `from_database` stay for callers that
# hold a borrowed provider or an in-memory database, never for a server.
read_rs crates/hub/src src/bin/cla-tool crates/serve/src/server.rs
recipes=$(matching 'Session::from_' < "$rs")
[ -z "$recipes" ] || { echo "a session built around Session::open: $recipes"; exit 1; }
reparse=$(matching 'handle_request\(' < "$rs" | grep '^crates/hub/src/' || true)
[ -z "$reparse" ] || { echo "the hub parses a request line twice: $reparse"; exit 1; }

echo "==> one body reader, one record codec (Database opens through the UnitView the linker folds; cladb/src/record.rs alone spells the records out)"
# `UnitView::layout` cuts the nine section bodies and `check_eager` /
# `Records::check_block` judge them; the solver's reader and the linker read
# through that view and decode no section themselves.
read_rs crates/cladb/src/reader.rs crates/cladb/src/objlink.rs
body_reads=$(matching 'get_u32_le|get_u8|get_u64_le|get_str' < "$rs")
[ -z "$body_reads" ] || { echo "a second section decoder grew back: $body_reads"; exit 1; }
# Record sizes (19, 20, 26, 13 + 4n) and field offsets live in record.rs; the
# rest of the crate names records, never byte counts. container.rs owns the
# file header's own geometry, fault.rs bounds its report lists.
read_rs crates/cladb/src
record_layout=$(code | grep -vE '^crates/cladb/src/(record|container|fault)\.rs:' \
    | matching '\b(19|20|26)\b|13 \+|const [A-Z_]*SIZE: usize')
[ -z "$record_layout" ] || { echo "record layout outside cladb/src/record.rs: $record_layout"; exit 1; }

echo "==> metadata read in place (core, serve, hub, depend and snap never decode a Database's object table whole)"
# A Database keeps object metadata in its sections: `name`, `kind`, `info`
# and `targets` read one object or one name where it sits. `objects()` /
# `object()` decode every object into an owned ObjectInfo on first use; they
# stay for cladb::dump, `cla-tool dump`, tests and benches.
read_rs crates/core/src crates/serve/src crates/hub/src crates/depend/src crates/snap/src
decoded=$(matching '\b(db|database)\.objects?\(' < "$rs")
[ -z "$decoded" ] || { echo "object metadata decoded whole: $decoded"; exit 1; }

echo "==> one integrity hash (every checksum and content key is xxh64; fnv64 is the tests' pin hash)"
# FNV-1a hashes a byte at a time in one serial chain; the formats' checksums,
# the closure keys and the fingerprints run on cladb's xxh64. `fnv64` stays
# exported, with its FNV-1a values, for the tests and benchmarks that pin
# bytes with it.
read_rs crates/*/src
fnv_calls=$(code | grep -v '^crates/bench/' | grep -v 'pub fn fnv64(' | matching '\bfnv64\(')
[ -z "$fnv_calls" ] || { echo "production code hashes with fnv64: $fnv_calls"; exit 1; }

echo "==> one producer per measurement (each BENCH_*.json file is written by one example: million_bench, hub_bench or snapshot_bench)"
# A number with two producers drifts into two numbers. The paper-table and
# micro targets in crates/bench print their rows and write no file; a second
# harness that names a BENCH_*.json output is a second producer of it.
read_rs --tests examples crates/bench
producers=$(matching 'BENCH_[A-Za-z_]*\.json' < "$rs" | cut -d: -f1 | LC_ALL=C sort -u | tr '\n' ' ')
[ "$producers" = "examples/hub_bench.rs examples/million_bench.rs examples/snapshot_bench.rs " ] \
    || { echo "BENCH_*.json outputs named by: $producers"; exit 1; }

echo "==> a snapshot is the graph (.clasnap holds prov, reps, sets and stats; encode_snapshot/save_snapshot are adapters only)"
# Every loader holds the linked Database, which has the names: a snapshot
# carries no string table, and the names-taking entry points survive only
# as writer.rs's adapters over snap::{encode, save}.
read_rs --tests crates/snap/src
tables=$(matching 'StringTable' < "$rs")
[ -z "$tables" ] || { echo "a string table grew back in the snapshot: $tables"; exit 1; }
grep -q '^crates/snap/src/format.rs:[0-9]*:.*pub const ALL: \[SnapSectionId; 4\]' "$rs" \
    || { echo "SnapSectionId::ALL must list prov, reps, sets and stats"; exit 1; }
read_rs crates/*/src src examples
named_saves=$(code | grep -v '^crates/snap/src/writer.rs:' | matching '\b(encode|save)_snapshot\(')
[ -z "$named_saves" ] || { echo "a caller passes names to a snapshot: $named_saves"; exit 1; }

echo "==> load or link (analyze_with answers from an admitted stored program or folds every unit; no second stored route)"
# The stored program is what a fold of the keyed objects links, so a run
# that admits it reads no unit object whatever the cache holds; every other
# run folds. The pass that built units without folding them, its keyed
# compile and the touch bookkeeping it needed stay gone.
read_rs crates/core/src/pipeline
unit_passes=$(code | matching '\bcompile_one_keyed\(' | grep -vc 'fn compile_one_keyed(' || true)
[ "$unit_passes" = 1 ] || { echo "core::pipeline calls compile_one_keyed( $unit_passes times"; exit 1; }
keyed=$(code | matching '\bfn compile_keyed\b')
[ -z "$keyed" ] || { echo "a second keyed compile grew back: $keyed"; exit 1; }
read_rs crates/snap/src/cache.rs
touched=$(matching 'HashSet' < "$rs")
[ -z "$touched" ] || { echo "the disk cache keeps a touched set again: $touched"; exit 1; }
read_rs --tests crates/*/src src tests
answers=$(matching 'fn touch\(' < "$rs" | grep -- '->' || true)
[ -z "$answers" ] || { echo "a touch answers something: $answers"; exit 1; }

echo "==> one sweep (the frozen graph's sweep reads the relation out; getLvals runs in the pass loop only)"
# At fixpoint Warm freezes the graph and materialises every set level by
# level over the condensation, for every SolveOptions. The mutating
# getLvals is the fixpoint's: no second sweep calls it object by object.
read_rs crates/core/src
outside=$(calls 'get_lvals[(]' 'fn get_lvals[(]' | grep -v ':pass$' || true)
[ -z "$outside" ] || { echo "get_lvals called outside the pass loop: $outside"; exit 1; }
read_rs --tests crates src tests examples
second=$(matching 'lval_sets' < "$rs")
[ -z "$second" ] || { echo "a second sweep grew back: $second"; exit 1; }

echo "==> one join (the passes and the sweep build every lval set with LvalStore::join and enter it with store::enter)"
# core/src/store.rs holds the one join and the one function that enters a
# written set into a pass epoch's store or the sweep's shards. Outside
# tests, union_sorted is called by join alone, no other file keys a set
# store or spells a hash-map Entry, and neither the fixpoint nor the sweep
# builds a set by sort + dedup.
read_rs crates/core/src
joins=$(calls 'union_sorted[(]')
[ "$(echo "$joins" | grep -c .)" = 1 ] && echo "$joins" | grep -q '^crates/core/src/store\.rs:[0-9]*:join$' ||
    { echo "union_sorted must have one caller, LvalStore::join: $joins"; exit 1; }
stores=$(grep -v '^crates/core/src/store.rs:' "$rs" | matching 'HashMap<u64|Entry::|fn intern')
[ -z "$stores" ] || { echo "a second way to enter a set: $stores"; exit 1; }
read_rs crates/core/src/fixpoint.rs crates/core/src/sweep.rs
built=$(matching '\.dedup\(\)' < "$rs")
[ -z "$built" ] || { echo "an lval set built by sort + dedup: $built"; exit 1; }

echo "==> one sealer (a session saves its snapshot from its sealer thread alone, and seals an epoch's Warm only through the epoch's sealed())"
# A reload returns at fixpoint and hands the epoch to the session's one
# sealer (serve/src/epoch.rs), which seals the newest epoch and saves it, in
# epoch order; a query that needs the sealed graph asks the epoch's
# OnceLock. Outside tests, no other serve code saves a snapshot or seals a
# Warm.
read_rs crates/serve/src
saves=$(calls '[.]save[(]|(save|encode)_snapshot[(]|snap::save[(]')
[ "$(echo "$saves" | grep -c .)" = 1 ] && echo "$saves" | grep -q '/epoch\.rs:[0-9]*:seal_newest$' ||
    { echo "a snapshot is saved at one call site, in the sealer: $saves"; exit 1; }
seals=$(calls '[.]seal[(][)]|[.]to_sealed[(]')
[ "$(echo "$seals" | grep -c .)" = 1 ] && echo "$seals" | grep -q '/epoch\.rs:[0-9]*:sealed$' ||
    { echo "an epoch's Warm is sealed through its sealed() alone: $seals"; exit 1; }

echo "==> one load path (a session's graph comes from core::pipeline::load_or_fixpoint, as a batch run's does)"
# load_or_fixpoint is the one function from a linked program to "the graph
# the store holds under this provenance, or the program at fixpoint". Serve
# calls it at one site, Loaded::new, and outside tests neither solves a
# database (Warm::from_database) nor asks a snapshot hook (`.load(` with an
# argument that is not an atomic ordering) itself.
read_rs crates/serve/src
loads=$(calls 'load_or_fixpoint[(]')
[ "$(echo "$loads" | grep -c .)" = 1 ] && echo "$loads" | grep -q '/epoch\.rs:[0-9]*:new$' ||
    { echo "a session loads its graph at one call site, Loaded::new: $loads"; exit 1; }
second=$(code | sed -E 's/[.]load[(](Relaxed|SeqCst|Acquire|Ordering::[A-Za-z]+)[)]//g' \
    | matching 'Warm::from_database|[.:]load[(]')
[ -z "$second" ] || { echo "a second load path grew back: $second"; exit 1; }

echo "==> one build route (a source session and cla-tool key, compile and link through core::pipeline::Build, as a batch run does)"
# Build::link is the one way from sources to a linked program: serve runs
# no compile pool, no per-file compile, no staleness probe and no link of
# its own, and neither does cla-tool (`compile` and `db-fuzz` take a batch
# Build's program).
read_rs crates/serve/src
own_build=$(code | matching '\b(compile_all|compile_one_keyed|open_linked)\(|SourceProbe')
[ -z "$own_build" ] || { echo "serve builds a program its own way: $own_build"; exit 1; }
read_rs src/bin/cla-tool
tool_build=$(code | matching '\b(compile_file|link_objects)\(|ObjectLinker|UnitObject::encode')
[ -z "$tool_build" ] || { echo "cla-tool builds a program its own way: $tool_build"; exit 1; }

echo "==> generators read no environment (a generated tree is its profile, scale and seed)"
# The Table 2 programs clabench pins come from crates/workload; a variable
# left set in a shell must not change them, nor a genc tree.
read_rs crates/workload/src crates/genc/src
envs=$(matching 'env::var' < "$rs")
[ -z "$envs" ] || { echo "a generator reads the environment: $envs"; exit 1; }

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc (deny warnings: no broken or private intra-doc link)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --keep-going

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test"
cargo test -q --release --workspace

echo "==> clabench (the benchmark package builds against the facade; its tests and quick check pass)"
cargo test -q --offline --manifest-path benchmarks/clabench/Cargo.toml --target-dir target
cargo run -q --release --offline --manifest-path benchmarks/clabench/Cargo.toml \
    --target-dir target -- check --quick

echo "==> db-fuzz smoke (deterministic fault injection over the bundled example)"
./target/release/cla-tool db-fuzz examples/c/main.c examples/c/store.c \
    -I examples/c --iters 500 --seed 1

echo "==> snapshot fuzz smoke (same battery over the .clasnap format)"
./target/release/cla-tool db-fuzz examples/c/main.c examples/c/store.c \
    -I examples/c --snapshot --iters 500 --seed 1

echo "==> front-fuzz smoke (hostile C source through the real compile path)"
./target/release/cla-tool front-fuzz examples/c/main.c examples/c/store.c \
    --iters 1000 --seed 1 --deadline-ms 5000

echo "==> direct-mode compile cache (manifest-keyed warm builds equal cold analyze; damaged manifests rebuilt)"
cargo test -q --release --test direct_cache

echo "==> stored program, unit objects unread (a warm analyze opens the program it linked last time without reading a cached object, even an evicted one; a damaged program is linked again, same answers)"
prog_dir="${PROGRAM_SMOKE_DIR:-target/program-smoke}"
rm -rf "$prog_dir"
mkdir -p "$prog_dir"
# stored_run RUN PROGRAM [MISSES]: the run prints program=PROGRAM (and
# cache-misses=MISSES) and the same pts( lines as run 1.
stored_run() {
    ./target/release/cla-tool analyze examples/c/*.c -I examples/c \
        --snapshot "$prog_dir/store" --print latest > "$prog_dir/$1.out"
    grep -q "program=$2 " "$prog_dir/$1.out" \
        || { echo "run $1 did not print program=$2:"; cat "$prog_dir/$1.out"; exit 1; }
    if [ -n "${3:-}" ]; then
        grep -q "cache-misses=$3 " "$prog_dir/$1.out" \
            || { echo "run $1 did not print cache-misses=$3:"; cat "$prog_dir/$1.out"; exit 1; }
    fi
    grep '^pts(' "$prog_dir/$1.out" > "$prog_dir/$1.pts"
    test -s "$prog_dir/$1.pts"
    if [ "$1" != 1 ]; then cmp "$prog_dir/1.pts" "$prog_dir/$1.pts"; fi
}
# flip_byte FILE: xor the middle byte of FILE with 1.
flip_byte() {
    at=$(( $(wc -c < "$1") / 2 ))
    byte=$(od -An -tu1 -j "$at" -N1 "$1" | tr -d ' ')
    printf "$(printf '\\%03o' $(( byte ^ 1 )))" | dd of="$1" bs=1 seek="$at" conv=notrunc status=none
}
stored_run 1 linked
stored_run 2 loaded 0
# A damaged unit object is not read by a run that answers from the program,
set -- "$prog_dir"/store/cache/*.clao
flip_byte "$1"
stored_run 2b loaded 0
# and is found, rejected and recompiled by the next run that folds.
rm "$prog_dir"/store/program-*.clao
stored_run 2c linked 1
stored_run 2d loaded 0
# Evicted objects do not stop a run that answers from the program either;
rm "$prog_dir"/store/cache/*.clao
stored_run 2e loaded 0
# the next run that folds compiles every unit again.
rm "$prog_dir"/store/program-*.clao
stored_run 2f linked 2
stored_run 2g loaded 0
set -- "$prog_dir"/store/program-*.clao
[ "$#" -eq 1 ] && [ -f "$1" ] || { echo "expected one stored program, found: $*"; exit 1; }
flip_byte "$1"
stored_run 3 linked
stored_run 4 loaded
rm -rf "$prog_dir"

echo "==> snapshot round trip (nethack profile: warm start >= 10x cold, identical answers)"
cargo run -q --release --example snapshot_bench -- nethack 1.0 \
    "${BENCH_SNAPSHOT_OUT:-target/BENCH_snapshot.json}"

echo "==> genc smoke (generate the ci-small profile, analyze it under the profiler)"
gen_dir="${GENC_SMOKE_DIR:-target/genc-smoke}"
prof_out="${PROF_OUT:-target/prof-smoke.collapsed}"
rm -rf "$gen_dir"
./target/release/cla-tool gen profiles/ci-small.toml --out "$gen_dir" --seed 1
./target/release/cla-tool analyze "$gen_dir"/*.c --jobs 0 --print gp0 \
    --profile "$prof_out" \
    | grep -q 'pts(gp0) = {'
test -s "$prof_out" || { echo "empty collapsed profile: $prof_out"; exit 1; }
rm -rf "$gen_dir"

echo "==> trace smoke (analyze the bundled example with the profiler on, validate the trace)"
trace_out="${TRACE_OUT:-target/trace-smoke.json}"
./target/release/cla-tool analyze examples/c/main.c examples/c/store.c \
    -I examples/c --trace "$trace_out" --metrics --print latest \
    --profile target/trace-smoke.collapsed \
    | grep -q 'cla_solve_passes_total'
./target/release/cla-tool trace-validate "$trace_out"

echo "==> one sweep at any affinity (pinned to one core, solve prints and snapshot-save writes what an unrestricted run does)"
# The sweep runs on as many threads as the process may use; answers, sharing
# and every counter (which .clasnap stores) must not depend on it.
if command -v taskset > /dev/null 2>&1; then
    aff_dir="${AFFINITY_SMOKE_DIR:-target/affinity-smoke}"
    rm -rf "$aff_dir"
    mkdir -p "$aff_dir"
    ./target/release/cla-tool compile examples/c/main.c examples/c/store.c -I examples/c \
        -o "$aff_dir/example.clao" > /dev/null
    # ci-small at ten times its lines: levels with work enough to split.
    sed -e 's/^total_loc = .*/total_loc = 120_000/' -e 's/^files = .*/files = 16/' \
        profiles/ci-small.toml > "$aff_dir/ci-small-x10.toml"
    ./target/release/cla-tool gen "$aff_dir/ci-small-x10.toml" --out "$aff_dir/tree" --seed 1 > /dev/null
    ./target/release/cla-tool compile "$aff_dir"/tree/*.c -o "$aff_dir/tree.clao" > /dev/null
    for prog in example:latest tree:gp0; do
        name=${prog%%:*}
        for run in one all; do
            pin=""
            [ "$run" = one ] && pin="taskset -c 0"
            $pin ./target/release/cla-tool solve "$aff_dir/$name.clao" --print "${prog#*:}" \
                --trace "$aff_dir/$name.$run.json" | grep '^pts(' > "$aff_dir/$name.$run.pts"
            $pin ./target/release/cla-tool snapshot-save "$aff_dir/$name.clao" \
                -o "$aff_dir/$name.$run.clasnap" 2> /dev/null
        done
        test -s "$aff_dir/$name.one.pts"
        cmp "$aff_dir/$name.one.pts" "$aff_dir/$name.all.pts"
        cmp "$aff_dir/$name.one.clasnap" "$aff_dir/$name.all.clasnap"
        grep -q '"solve.extract".*"threads":1,' "$aff_dir/$name.one.json" \
            || { echo "$name: the pinned sweep ran on more than one thread"; exit 1; }
    done
    # The bundled example is too small to start a worker; the tree is not,
    # wherever a second core exists.
    grep -q '"solve.extract".*"threads":1,' "$aff_dir/example.all.json" \
        || { echo "the bundled example started a sweep worker"; exit 1; }
    if [ "$(nproc)" -gt 1 ] && grep -q '"solve.extract".*"threads":1,' "$aff_dir/tree.all.json"; then
        echo "the unrestricted sweep of the tree ran on one thread"; exit 1
    fi
    rm -rf "$aff_dir"
else
    echo "taskset not found: skipping the affinity smoke"
fi

echo "==> allocation gates (counting global allocator; preprocessing allocates per unit, not per token; lowering per emitted object, not per expression; the solver per distinct set, not per object)"
# One test binary each: the counters are process-wide.
cargo test -q --release --features count-alloc --test alloc_gate --test alloc_gate_lower \
    --test alloc_gate_solver

echo "==> bench-diff self-check (committed last-good vs itself: zero regressions)"
./target/release/cla-tool bench-diff benchmarks/BENCH_million.json \
    benchmarks/BENCH_million.json --ceiling 15 | grep -q 'bench-diff OK'

echo "verify: OK"
