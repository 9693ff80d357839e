#!/usr/bin/env bash
# A/A: the full suite twice on one build, untraced and traced. Prints, per
# (end-to-end metric, workload), both values, how much worse the second run
# reads and the bound; exits non-zero when a pair is outside its bound, an
# exact count differs between the two trace runs, or an operation failed.
# If a tail does not hold, lengthen the run (SECONDS_PER_RUN) rather than
# widening the bound.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/../../target}"
seed="${SEED:-1}"
seconds="${SECONDS_PER_RUN:-12}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target"
bench="$target/release/clabench"
out="$target/clabench"

status=0
for mode in "" "--trace"; do
    for run in first second; do
        # A run with failed operations exits 1; compare reports it below.
        "$bench" run --all $mode --seed "$seed" --seconds "$seconds" \
            --out "$out/aa-$run.json" >/dev/null || [ $? -eq 1 ]
    done
    echo "== seed $seed, ${mode:-end to end} =="
    "$bench" compare "$out/aa-first.json" "$out/aa-second.json" || status=1
done
exit $status
