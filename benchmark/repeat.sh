#!/usr/bin/env bash
# Runs the full pass N times (fresh processes, seeds 1..N), then prints for
# every workload and metric the median, the run-to-run spread and, for the
# end-to-end metrics, whether the last pass is worse than the first by more
# than the metric's bound in BENCHMARK.json. Deterministic per-layer counts
# must be bit-equal. Exits non-zero when a gate fails.
#
#   benchmark/repeat.sh            # 2 end-to-end passes + 2 traced passes
#   benchmark/repeat.sh 10 e2e     # 10 end-to-end passes: the spread check
#   benchmark/repeat.sh 2 traced
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p benchmark/out
passes=${1:-2}
which=${2:-both}
run() { cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- "$@"; }
status=0
for kind in e2e traced; do
  [ "$which" = both ] || [ "$which" = "$kind" ] || continue
  flag=(); result=result.json
  if [ "$kind" = traced ]; then flag=(--traced); result=result_traced.json; fi
  files=()
  for i in $(seq 1 "$passes"); do
    echo "== $kind pass $i of $passes ==" >&2
    run --seed "$i" "${flag[@]}" >/dev/null 2>benchmark/out/repeat_${kind}_$i.log || status=1
    cp "benchmark/out/$result" "benchmark/out/repeat_${kind}_$i.json"
    files+=("benchmark/out/repeat_${kind}_$i.json")
  done
  run --summarize "${files[@]}" || status=1
done
exit $status
