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
# No build route decodes an object to link it: core::pipeline, serve, hub and
# `cla-tool compile` go through cladb's ObjectLinker. `Linker::add_unit`,
# `link` and `Database::to_unit` stay for tests, crates/bench and clabench.
unit_links=$(for f in crates/core/src/pipeline.rs crates/serve/src/*.rs crates/hub/src/*.rs; do
    sed '/#\[cfg(test)\]/,$d' "$f" | grep -HnE --label="$f" '\.to_unit\(\)|add_unit\('
done || true)
[ -z "$unit_links" ] || { echo "a build route links decoded units: $unit_links"; exit 1; }
tool_links=$(grep -nE '\blink\(&|add_unit\(' src/bin/cla-tool.rs || true)
sed -n '/^fn cmd_compile/,/^}/p' src/bin/cla-tool.rs | grep -q 'link_objects(' && [ -z "$tool_links" ] \
    || { echo "cla-tool compile must link through ObjectLinker: $tool_links"; exit 1; }
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
recipes=$(for f in crates/hub/src/*.rs src/bin/cla-tool.rs crates/serve/src/server.rs; do
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

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

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

echo "==> stored program (a warm analyze opens the program it linked last time; a damaged one is linked again, same answers)"
prog_dir="${PROGRAM_SMOKE_DIR:-target/program-smoke}"
rm -rf "$prog_dir"
mkdir -p "$prog_dir"
stored_run() {
    ./target/release/cla-tool analyze examples/c/*.c -I examples/c \
        --snapshot "$prog_dir/store" --print latest > "$prog_dir/$1.out"
    grep -q "program=$2 " "$prog_dir/$1.out" \
        || { echo "run $1 did not print program=$2:"; cat "$prog_dir/$1.out"; exit 1; }
    grep '^pts(' "$prog_dir/$1.out" > "$prog_dir/$1.pts"
    test -s "$prog_dir/$1.pts"
}
stored_run 1 linked
stored_run 2 loaded
cmp "$prog_dir/1.pts" "$prog_dir/2.pts"
set -- "$prog_dir"/store/program-*.clao
[ "$#" -eq 1 ] && [ -f "$1" ] || { echo "expected one stored program, found: $*"; exit 1; }
at=$(( $(wc -c < "$1") / 2 ))
byte=$(od -An -tu1 -j "$at" -N1 "$1" | tr -d ' ')
printf "$(printf '\\%03o' $(( byte ^ 1 )))" | dd of="$1" bs=1 seek="$at" conv=notrunc status=none
stored_run 3 linked
cmp "$prog_dir/1.pts" "$prog_dir/3.pts"
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

echo "==> allocation gates (counting global allocator; preprocessing allocates per unit, not per token; lowering per emitted object, not per expression; the solver per distinct set, not per object)"
# One test binary each: the counters are process-wide.
cargo test -q --release --features count-alloc --test alloc_gate --test alloc_gate_lower \
    --test alloc_gate_solver

echo "==> bench-diff self-check (committed last-good vs itself: zero regressions)"
./target/release/cla-tool bench-diff benchmarks/BENCH_million.json \
    benchmarks/BENCH_million.json --ceiling 15 | grep -q 'bench-diff OK'

echo "verify: OK"
