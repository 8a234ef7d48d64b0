#!/usr/bin/env bash
# Runs the traced benchmark twice on one seed and checks that the exact
# counts (retires, captures, code and snapshot bytes, jet counters, RTL and
# Verilog cycles, replayed cache hits and misses) agree line for line.
#
#   bash stackbench/check_counts.sh <workload> [seed] [seconds]
#
# Run it from the root of the repository.
set -euo pipefail
workload=${1:?usage: check_counts.sh <workload> [seed] [seconds]}
seed=${2:-1}
seconds=${3:-5}
out=stackbench/out
counts="$out/$workload-seed$seed-counts.txt"
for run in 1 2; do
  cargo run --release --quiet --offline --manifest-path stackbench/Cargo.toml -- \
    --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 1 2>/dev/null | tail -n 1 >/dev/null
  cp "$counts" "$out/check-$run.txt"
done
if cmp -s "$out/check-1.txt" "$out/check-2.txt"; then
  echo "$workload seed $seed: exact counts agree ($(wc -l <"$counts") replayed runs)"
else
  diff "$out/check-1.txt" "$out/check-2.txt" | head -n 20
  echo "$workload seed $seed: exact counts differ" >&2
  exit 1
fi
