#!/usr/bin/env bash
# Build the benchmark (Release + IPO, into build-bench/ at the repository
# root) and run it. Arguments go to build-bench/sensmart_bench:
#   bash benchmark/run.sh --workload kernel_fig7 --seed 0 --seconds 20 --trace 0
# With --all, every workload runs untraced in its own process and the
# records are collected into build-bench/results-seed<S>.json, the input
# of `sensmart_bench --compare A.json B.json`:
#   bash benchmark/run.sh --all [--seed S] [--seconds T]
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$(dirname "$here")/build-bench

if [[ ! -f $build/build.ninja && ! -f $build/Makefile ]]; then
  generator=()
  if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
  cmake -S "$here" -B "$build" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=Release >&2
fi
jobs=$(nproc 2>/dev/null || echo 2)
if ((jobs > 4)); then jobs=4; fi
cmake --build "$build" --parallel "$jobs" >&2
bench=$build/sensmart_bench

if [[ ${1:-} != --all ]]; then
  exec "$bench" "$@"
fi

shift
seed=0
seconds=20
while (($#)); do
  case $1 in
    --seed) seed=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    *) echo "usage: run.sh --all [--seed S] [--seconds T]" >&2; exit 2 ;;
  esac
done
results=$build/results-seed$seed.json
status=0
sep='['
: >"$results.tmp"
for workload in $("$bench" --list); do
  record=$build/record-$workload-seed$seed.json
  "$bench" --workload "$workload" --seed "$seed" --seconds "$seconds" \
    --trace 0 --record "$record" || status=1
  { printf '%s\n' "$sep"; cat "$record"; } >>"$results.tmp"
  sep=','
done
echo ']' >>"$results.tmp"
mv "$results.tmp" "$results"
echo "results: $results"
exit "$status"
