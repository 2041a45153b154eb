#!/usr/bin/env bash
# Regenerate every recorded result in results/ from scratch.
#
# Usage: scripts/reproduce.sh [scale]
#   scale (default 1) divides the workloads; the recorded numbers in
#   EXPERIMENTS.md use scale 1. A full scale-1 run takes ~30-45 minutes
#   on one core.
set -euo pipefail
cd "$(dirname "$0")/.."
SCALE="${1:-1}"

mkdir -p results
run() {
    local out="$1"; shift
    echo ">>> $* -> results/$out"
    { time cargo run --release -p bench "$@" ; } > "results/$out" 2>&1
}

cargo build --release --workspace

run table4_breakdown.txt       --bin table4 -- --scale "$SCALE"
run table6.txt                 --bin table6 -- --scale "$SCALE"
run figure1.txt                --bin figure1 -- --scale "$SCALE"
run table3.txt                 --bin table3 -- --scale 4
run working_sets.txt           --bin table6 -- --scale 4 --working-sets \
                               --variants kmeans-high,ssca2,vacation-low,genome,bayes
run ablation_granularity.txt   --bin ablation_granularity -- --scale 2
run ablation_earlyrelease.txt  --bin ablation_earlyrelease
run ablation_sigsize.txt       --bin ablation_sigsize -- --scale 4
run ablation_stall.txt         --bin ablation_stall -- --scale 2
run ablation_bayes_backend.txt --bin ablation_bayes_backend
run ablation_cm.txt            --bin ablation_cm -- --scale 2 \
                               --json results/BENCH_ablation_cm.json

# Backoff vs immediate restart on intruder (§V-B3): the `immediate` and
# `linear` rows of ablation_cm, pinned to each of the six systems in turn.
echo ">>> ablation_cm --variants intruder (x6 systems) -> results/ablation_backoff.txt"
{ time for sys in "Eager HTM" "Lazy HTM" "Eager Hybrid" "Lazy Hybrid" "Eager STM" "Lazy STM"; do
    cargo run --release -p bench --bin ablation_cm -- \
        --variants intruder --threadlist 8 --scale 2 --system "$sys"
done ; } > results/ablation_backoff.txt 2>&1

# Fault-injection robustness sweep: writes its own results/chaos.txt
# (degradation curve) and the per-run rows; scale pinned to its default
# so the recorded curve is reproducible regardless of $SCALE.
echo ">>> chaos -> results/chaos.txt"
cargo run --release -p bench --bin chaos -- --json results/BENCH_chaos.json

# Golden cycle-count regression files (results/golden/*.json): always
# scale 64 with the default scheduler seed, regardless of $SCALE, so
# `cargo test --release --test golden -- --ignored` can diff them.
echo ">>> schedfuzz --golden -> results/golden/"
cargo run --release -p bench --bin schedfuzz -- --golden

# Table IV characterization + cycle-breakdown artifact
# (results/table4.json): always the pinned profiling configuration
# (scale 64, 4 threads, golden scheduler seed), so
# `table4 --check` and `cargo test --test table4` can byte-diff it.
echo ">>> table4 --write -> results/table4.json"
cargo run --release -p bench --bin table4 -- --write

echo "all results regenerated (scale $SCALE)"
