#!/usr/bin/env bash
# Run every benchmark workload N times (default 5) with seed 1, one
# process at a time, then one traced run of each. Each run's JSON record
# and its printed output go to OUT/runs/; OUT/all.json collects every
# record in one file, the form benchmark/baseline.json takes.
#
#   benchmark/run.sh OUT [N] [SECONDS]
#
# Compare two result sets (directories or all.json files) with
#   cargo run --release --offline -q --manifest-path benchmark/Cargo.toml -- --compare A B
set -euo pipefail

out=${1:?usage: benchmark/run.sh OUT [N] [SECONDS]}
n=${2:-5}
secs=${3:-15}

cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin=${CARGO_TARGET_DIR:-benchmark/target}/release/benchmark

mkdir -p "$out/runs"
for w in p2p_stream chaos_ring incast_storm bfs_strong; do
    for i in $(seq 1 "$n"); do
        "$bin" --workload "$w" --seed 1 --seconds "$secs" --trace 0 \
            --json "$out/runs/$w.$i.json" > "$out/runs/$w.$i.txt"
        tail -n 1 "$out/runs/$w.$i.txt"
    done
    "$bin" --workload "$w" --seed 1 --seconds "$secs" --trace 1 \
        --json "$out/runs/$w.trace.json" > "$out/runs/$w.trace.txt"
    tail -n 1 "$out/runs/$w.trace.txt"
done

{
    printf '{"runs": [\n'
    sep=""
    for f in "$out"/runs/*.json; do
        printf '%s' "$sep"
        cat "$f"
        sep=","
    done
    printf ']}\n'
} > "$out/all.json"
echo "wrote $out/all.json"
