#!/bin/sh
# Full offline verification: formatting, lints, release build, test suite.
# Run from the repository root; fails fast on the first broken step.
set -eu

cd "$(dirname "$0")/.."

echo "==> one build path (crates/serve spawns no compile workers and guards no compile)"
# core::pipeline owns the only compile pool and the only catch_unwind around
# a compile; what serve may keep is server.rs's per-connection guard.
second_pool=$(for f in crates/serve/src/*.rs; do
    sed '/#\[cfg(test)\]/,$d' "$f" | grep -HnE --label="$f" 'thread::scope|catch_unwind\('
done | grep -v '^crates/serve/src/server.rs:.*catch_unwind(AssertUnwindSafe(|| dispatch(' || true)
[ -z "$second_pool" ] || { echo "a second pool or guard grew back: $second_pool"; exit 1; }

echo "==> one container, one accept loop (cladb::container owns the file layout, serve::server owns accept)"
# .clao and .clasnap are parsed, verified and assembled by cladb/src/container.rs:
# no second cursor, and no table arithmetic outside it (fault.rs may rewrite
# tables through its codec; lib.rs re-exports the constant).
cursors=$(grep -rn 'struct Cur\b' crates/*/src | grep -v '^crates/cladb/src/container.rs:' || true)
[ -z "$cursors" ] || { echo "a second read cursor grew back: $cursors"; exit 1; }
geometry=$(grep -rln 'SECTION_ENTRY_SIZE' crates/*/src src \
    | grep -vE '^crates/cladb/src/(container|fault|lib)\.rs$' || true)
[ -z "$geometry" ] || { echo "section-table arithmetic outside the container: $geometry"; exit 1; }
# The Unix server and the TCP hub run on serve::server's one Listener.
acceptors=$(grep -rlE '\.accept\(\)|\.incoming\(\)' crates/*/src || true)
[ "$acceptors" = "crates/serve/src/server.rs" ] || { echo "accept loops in: $acceptors"; exit 1; }

echo "==> one dependence walk (FlowIndex::build makes the one pass over the blocks; a damaged one is an error, not a panic)"
# The per-query overlay decoded every block per query and unwrapped each one.
# What may read a block under crates/depend and crates/serve is build's loop.
block_reads=$(for f in crates/depend/src/*.rs crates/serve/src/*.rs; do
    sed '/#\[cfg(test)\]/,$d' "$f" | grep -HnE --label="$f" 'expect\("valid database"\)|\.block\('
done || true)
[ "$(echo "$block_reads" | sed 's/:[0-9]*: */:/')" = 'crates/depend/src/lib.rs:for a in db.block(src)? {' ] \
    || { echo "block reads outside FlowIndex::build, or unwrapped: $block_reads"; exit 1; }

echo "==> one linker, adapters only (builds fold encoded unit objects; link and Linker wrap ObjectLinker)"
# No build route decodes an object to link it: core::pipeline, serve and hub
# go through cladb's ObjectLinker, and `cla-tool compile` through the
# pipeline's Build. `Linker::add_unit`, `link` and `Database::to_unit` stay
# for tests, crates/bench and clabench.
unit_links=$(for f in crates/core/src/pipeline.rs crates/serve/src/*.rs crates/hub/src/*.rs; do
    sed '/#\[cfg(test)\]/,$d' "$f" | grep -HnE --label="$f" '\.to_unit\(\)|add_unit\('
done || true)
[ -z "$unit_links" ] || { echo "a build route links decoded units: $unit_links"; exit 1; }
tool_links=$(grep -HnE '(^|[^.])\blink\(&|add_unit\(' src/bin/cla-tool/*.rs || true)
sed -n '/^pub fn compile(/,/^}/p' src/bin/cla-tool/build.rs | grep -q 'link_sources(' \
    && sed -n '/^pub fn link_sources(/,/^}/p' src/bin/cla-tool/build.rs | grep -q 'Build::new(' \
    && [ -z "$tool_links" ] \
    || { echo "cla-tool compile must link through pipeline::Build: $tool_links"; exit 1; }
# ObjectLinker is the one fold that merges symbols: linker.rs keeps no table
# of its own and builds no program object by object.
adapter=$(sed '/#\[cfg(test)\]/,$d' crates/cladb/src/linker.rs)
second_fold=$(echo "$adapter" | grep -nE 'HashMap|push_object|push_assign' || true)
[ -z "$second_fold" ] || { echo "a second symbol fold grew back in linker.rs: $second_fold"; exit 1; }
echo "$adapter" | grep -q 'pub struct Linker(ObjectLinker);' \
    || { echo "Linker must wrap ObjectLinker"; exit 1; }

echo "==> one session recipe (servers build sessions with Session::open from a SessionSpec; the hub answers the request it parsed)"
# Session::open is the one place that decides sources vs. object and strict
# vs. lenient. `from_files_jobs` and `from_database` stay for callers that
# hold a borrowed provider or an in-memory database, never for a server.
recipes=$(for f in crates/hub/src/*.rs src/bin/cla-tool/*.rs crates/serve/src/server.rs; do
    sed '/#\[cfg(test)\]/,$d' "$f" | grep -HnE --label="$f" 'Session::from_'
done || true)
[ -z "$recipes" ] || { echo "a session built around Session::open: $recipes"; exit 1; }
reparse=$(for f in crates/hub/src/*.rs; do
    sed '/#\[cfg(test)\]/,$d' "$f" | grep -HnE --label="$f" 'handle_request\('
done || true)
[ -z "$reparse" ] || { echo "the hub parses a request line twice: $reparse"; exit 1; }

echo "==> one body reader, one record codec (Database opens through the UnitView the linker folds; cladb/src/record.rs alone spells the records out)"
# `UnitView::layout` cuts the nine section bodies and `check_eager` /
# `Records::check_block` judge them; the solver's reader and the linker read
# through that view and decode no section themselves.
body_reads=$(for f in crates/cladb/src/reader.rs crates/cladb/src/objlink.rs; do
    sed '/#\[cfg(test)\]/,$d' "$f" | grep -HnE --label="$f" 'get_u32_le|get_u8|get_u64_le|get_str'
done || true)
[ -z "$body_reads" ] || { echo "a second section decoder grew back: $body_reads"; exit 1; }
# Record sizes (19, 20, 26, 13 + 4n) and field offsets live in record.rs; the
# rest of the crate names records, never byte counts. container.rs owns the
# file header's own geometry, fault.rs bounds its report lists.
record_layout=$(for f in crates/cladb/src/*.rs; do
    case "$f" in */record.rs|*/container.rs|*/fault.rs) continue ;; esac
    sed '/#\[cfg(test)\]/,$d' "$f" | grep -vE '^\s*//' \
        | grep -HnE --label="$f" '\b(19|20|26)\b|13 \+|const [A-Z_]*SIZE: usize'
done || true)
[ -z "$record_layout" ] || { echo "record layout outside cladb/src/record.rs: $record_layout"; exit 1; }

echo "==> metadata read in place (core, serve, hub, depend and snap never decode a Database's object table whole)"
# A Database keeps object metadata in its sections: `name`, `kind`, `info`
# and `targets` read one object or one name where it sits. `objects()` /
# `object()` decode every object into an owned ObjectInfo on first use; they
# stay for cladb::dump, `cla-tool dump`, tests and benches.
decoded=$(for f in crates/core/src/*.rs crates/serve/src/*.rs crates/hub/src/*.rs \
    crates/depend/src/*.rs crates/snap/src/*.rs; do
    sed '/#\[cfg(test)\]/,$d' "$f" | grep -HnE --label="$f" '\b(db|database)\.objects?\('
done || true)
[ -z "$decoded" ] || { echo "object metadata decoded whole: $decoded"; exit 1; }

echo "==> one integrity hash (every checksum and content key is xxh64; fnv64 is the tests' pin hash)"
# FNV-1a hashes a byte at a time in one serial chain; the formats' checksums,
# the closure keys and the fingerprints run on cladb's xxh64. `fnv64` stays
# exported, with its FNV-1a values, for the tests and benchmarks that pin
# bytes with it.
fnv_calls=$(for f in $(find crates/*/src -name '*.rs' | grep -v '^crates/bench/'); do
    sed '/#\[cfg(test)\]/,$d' "$f" | grep -vE '^\s*//' | grep -v 'pub fn fnv64(' \
        | grep -HnE --label="$f" '\bfnv64\('
done || true)
[ -z "$fnv_calls" ] || { echo "production code hashes with fnv64: $fnv_calls"; exit 1; }

echo "==> one producer per measurement (each BENCH_*.json file is written by one example: million_bench, hub_bench or snapshot_bench)"
# A number with two producers drifts into two numbers. The paper-table and
# micro targets in crates/bench print their rows and write no file; a second
# harness that names a BENCH_*.json output is a second producer of it.
producers=$(grep -rlE 'BENCH_[A-Za-z_]*\.json' examples crates/bench | LC_ALL=C sort | tr '\n' ' ')
[ "$producers" = "examples/hub_bench.rs examples/million_bench.rs examples/snapshot_bench.rs " ] \
    || { echo "BENCH_*.json outputs named by: $producers"; exit 1; }

echo "==> a snapshot is the graph (.clasnap holds prov, reps, sets and stats; encode_snapshot/save_snapshot are adapters only)"
# Every loader holds the linked Database, which has the names: a snapshot
# carries no string table, and the names-taking entry points survive only
# as writer.rs's adapters over snap::{encode, save}.
tables=$(grep -rln 'StringTable' crates/snap/src || true)
[ -z "$tables" ] || { echo "a string table grew back in the snapshot: $tables"; exit 1; }
grep -q 'pub const ALL: \[SnapSectionId; 4\]' crates/snap/src/format.rs \
    || { echo "SnapSectionId::ALL must list prov, reps, sets and stats"; exit 1; }
named_saves=$(for f in $(find crates/*/src src examples -name '*.rs' | grep -v '^crates/snap/src/writer.rs$'); do
    sed '/#\[cfg(test)\]/,$d' "$f" | grep -vE '^\s*//' \
        | grep -HnE --label="$f" '\b(encode|save)_snapshot\('
done || true)
[ -z "$named_saves" ] || { echo "a caller passes names to a snapshot: $named_saves"; exit 1; }

echo "==> load or link (analyze_with answers from an admitted stored program or folds every unit; no second stored route)"
# The stored program is what a fold of the keyed objects links, so a run
# that admits it reads no unit object whatever the cache holds; every other
# run folds. The pass that built units without folding them, its keyed
# compile and the touch bookkeeping it needed stay gone.
pipeline=$(sed '/#\[cfg(test)\]/,$d' crates/core/src/pipeline.rs | grep -vE '^\s*//')
unit_passes=$(echo "$pipeline" | grep -E '\bcompile_one_keyed\(' | grep -vc 'fn compile_one_keyed(' || true)
[ "$unit_passes" = 1 ] || { echo "core::pipeline calls compile_one_keyed( $unit_passes times"; exit 1; }
keyed=$(echo "$pipeline" | grep -nE '\bfn compile_keyed\b' || true)
[ -z "$keyed" ] || { echo "a second keyed compile grew back: $keyed"; exit 1; }
touched=$(sed '/#\[cfg(test)\]/,$d' crates/snap/src/cache.rs | grep -n 'HashSet' || true)
[ -z "$touched" ] || { echo "the disk cache keeps a touched set again: $touched"; exit 1; }
answers=$(grep -rnE 'fn touch\(' crates/*/src src tests | grep -- '->' || true)
[ -z "$answers" ] || { echo "a touch answers something: $answers"; exit 1; }

echo "==> one sweep (the frozen graph's sweep reads the relation out; getLvals runs in the pass loop only)"
# At fixpoint Warm freezes the graph and materialises every set level by
# level over the condensation, for every SolveOptions. The mutating
# getLvals is the fixpoint's: no second sweep calls it object by object.
calls=$(for f in crates/core/src/*.rs; do
    sed '/#\[cfg(test)\]/,$d' "$f" | awk -v f="$f" '
        /^ *\/\// { next }
        /fn [a-z_0-9]+/ { match($0, /fn [a-z_0-9]+/); fn = substr($0, RSTART + 3, RLENGTH - 3) }
        /get_lvals\(/ && !/fn get_lvals\(/ { print f ":" NR ":" fn }'
done | grep -v ':pass$' || true)
[ -z "$calls" ] || { echo "get_lvals called outside the pass loop: $calls"; exit 1; }
second=$(grep -rn 'lval_sets' crates src tests examples || true)
[ -z "$second" ] || { echo "a second sweep grew back: $second"; exit 1; }

echo "==> one join (the passes and the sweep build every lval set with LvalStore::join and enter it with store::enter)"
# core/src/store.rs holds the one join and the one function that enters a
# written set into a pass epoch's store or the sweep's shards. Outside
# tests, union_sorted is called by join alone, no other file keys a set
# store or spells a hash-map Entry, and neither the fixpoint nor the sweep
# builds a set by sort + dedup.
calls=$(for f in crates/core/src/*.rs; do
    sed '/#\[cfg(test)\]/,$d' "$f" | awk -v f="$f" '
        /^ *\/\// { next }
        /fn [a-z_0-9]+/ { match($0, /fn [a-z_0-9]+/); fn = substr($0, RSTART + 3, RLENGTH - 3) }
        /union_sorted\(/ { print f ":" NR ":" fn }'
done)
[ "$(echo "$calls" | grep -c .)" = 1 ] && echo "$calls" | grep -q '/store\.rs:[0-9]*:join$' ||
    { echo "union_sorted must have one caller, LvalStore::join: $calls"; exit 1; }
stores=$(for f in crates/core/src/*.rs; do
    [ "$f" = crates/core/src/store.rs ] && continue
    sed '/#\[cfg(test)\]/,$d' "$f" | grep -HnE --label="$f" 'HashMap<u64|Entry::|fn intern'
done || true)
[ -z "$stores" ] || { echo "a second way to enter a set: $stores"; exit 1; }
built=$(for f in crates/core/src/fixpoint.rs crates/core/src/sweep.rs; do
    sed '/#\[cfg(test)\]/,$d' "$f" | grep -HnE --label="$f" '\.dedup\(\)'
done || true)
[ -z "$built" ] || { echo "an lval set built by sort + dedup: $built"; exit 1; }

echo "==> one sealer (a session saves its snapshot from its sealer thread alone, and seals an epoch's Warm only through the epoch's sealed())"
# A reload returns at fixpoint and hands the epoch to the session's one
# sealer (serve/src/epoch.rs), which seals the newest epoch and saves it, in
# epoch order; a query that needs the sealed graph asks the epoch's
# OnceLock. Outside tests, no other serve code saves a snapshot or seals a
# Warm.
serve_calls() {
    for f in crates/serve/src/*.rs; do
        sed '/#\[cfg(test)\]/,$d' "$f" | awk -v f="$f" -v re="$1" '
            /^ *\/\// { next }
            /fn [a-z_0-9]+/ { match($0, /fn [a-z_0-9]+/); fn = substr($0, RSTART + 3, RLENGTH - 3) }
            $0 ~ re { print f ":" NR ":" fn }'
    done
}
saves=$(serve_calls '[.]save[(]|(save|encode)_snapshot[(]|snap::save[(]')
[ "$(echo "$saves" | grep -c .)" = 1 ] && echo "$saves" | grep -q '/epoch\.rs:[0-9]*:seal_newest$' ||
    { echo "a snapshot is saved at one call site, in the sealer: $saves"; exit 1; }
seals=$(serve_calls '[.]seal[(][)]|[.]to_sealed[(]')
[ "$(echo "$seals" | grep -c .)" = 1 ] && echo "$seals" | grep -q '/epoch\.rs:[0-9]*:sealed$' ||
    { echo "an epoch's Warm is sealed through its sealed() alone: $seals"; exit 1; }

echo "==> one load path (a session's graph comes from core::pipeline::load_or_fixpoint, as a batch run's does)"
# load_or_fixpoint is the one function from a linked program to "the graph
# the store holds under this provenance, or the program at fixpoint". Serve
# calls it at one site, Loaded::new, and outside tests neither solves a
# database (Warm::from_database) nor asks a snapshot hook (`.load(` with an
# argument that is not an atomic ordering) itself.
loads=$(serve_calls 'load_or_fixpoint[(]')
[ "$(echo "$loads" | grep -c .)" = 1 ] && echo "$loads" | grep -q '/epoch\.rs:[0-9]*:new$' ||
    { echo "a session loads its graph at one call site, Loaded::new: $loads"; exit 1; }
second=$(for f in crates/serve/src/*.rs; do
    sed '/#\[cfg(test)\]/,$d' "$f" |
        sed -E 's/[.]load[(](Relaxed|SeqCst|Acquire|Ordering::[A-Za-z]+)[)]//g' |
        grep -HnE --label="$f" 'Warm::from_database|[.:]load[(]' | grep -vE ':[0-9]+: *//'
done || true)
[ -z "$second" ] || { echo "a second load path grew back: $second"; exit 1; }

echo "==> one build route (a source session and cla-tool key, compile and link through core::pipeline::Build, as a batch run does)"
# Build::link is the one way from sources to a linked program: serve runs
# no compile pool, no per-file compile, no staleness probe and no link of
# its own, and neither does cla-tool (`compile` and `db-fuzz` take a batch
# Build's program).
own_build=$(for f in crates/serve/src/*.rs; do
    sed '/#\[cfg(test)\]/,$d' "$f" | grep -vE '^\s*//' |
        grep -HnE --label="$f" '\b(compile_all|compile_one_keyed|open_linked)\(|SourceProbe'
done || true)
[ -z "$own_build" ] || { echo "serve builds a program its own way: $own_build"; exit 1; }
# An empty list would pass unread.
set -- src/bin/cla-tool/*.rs
[ -f "$1" ] || { echo "no cla-tool sources under src/bin/cla-tool/"; exit 1; }
tool_build=$(for f in "$@"; do
    sed '/#\[cfg(test)\]/,$d' "$f" | grep -vE '^\s*//' |
        grep -HnE --label="$f" '\b(compile_file|link_objects)\(|ObjectLinker|UnitObject::encode'
done || true)
[ -z "$tool_build" ] || { echo "cla-tool builds a program its own way: $tool_build"; exit 1; }

echo "==> generators read no environment (a generated tree is its profile, scale and seed)"
# The Table 2 programs clabench pins come from crates/workload; a variable
# left set in a shell must not change them, nor a genc tree.
envs=$(for f in crates/workload/src/*.rs crates/genc/src/*.rs; do
    sed '/#\[cfg(test)\]/,$d' "$f" | grep -HnE --label="$f" 'env::var'
done || true)
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
