#!/usr/bin/env bash
# Is the benchmark repeatable on this tree, on this host, right now?
#
# Runs the full set — every workload, measured then traced, each in its own
# process — three times: twice with seed 1 (sets A and B) and once with
# seed 2. Fails if any end-to-end metric differs between A and B, or between
# A and the other seed, by more than the metric's own bound; if any exact
# count differs between A and B; or if any run had a failed check.
#
#   benchmark/repeat.sh [OUT_DIR]      (default benchmark/baseline)
#
# OUT_DIR receives set_a.json, set_b.json, set_seed2.json and repeat.txt
# (this script's comparison output). About four minutes.
set -euo pipefail
cd "$(dirname "$0")/.."
out=${1:-benchmark/baseline}
mkdir -p "$out"
cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml
bin=${CARGO_TARGET_DIR:-benchmark/target}/release/sppbench

"$bin" --seed 1 --out "$out/set_a.json" > "$out/set_a.log"
"$bin" --seed 1 --out "$out/set_b.json" > "$out/set_b.log"
"$bin" --seed 2 --out "$out/set_seed2.json" > "$out/set_seed2.log"
rm "$out"/set_*.log

status=0
python3 benchmark/compare.py "$out/set_a.json" "$out/set_b.json" > "$out/a_b.txt" || status=1
python3 benchmark/compare.py "$out/set_a.json" "$out/set_seed2.json" --other-seed > "$out/a_seed2.txt" || status=1
{
    echo "# A vs B: same tree, same seed, separate invocations"
    cat "$out/a_b.txt"
    echo
    echo "# A vs another seed"
    cat "$out/a_seed2.txt"
} | tee "$out/repeat.txt"
rm "$out/a_b.txt" "$out/a_seed2.txt"
exit $status
