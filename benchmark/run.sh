#!/usr/bin/env bash
# dws-bench: build the DWS libraries and the benchmark from source, then
# run workloads, each in its own process.
#
#   benchmark/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#       One workload. The last stdout line is its JSON result.
#   benchmark/run.sh [--seed N] [--seconds S] [--trace]
#       All four workloads, one process each.
# Either form exits 1 when an operation failed (failed_frac > 0).
#   benchmark/run.sh --smoke
#       All four workloads on small inputs, untraced and traced, then a
#       check of every emitted metric against BENCHMARK.json.
#
# Builds go to build-bench/ (Release; tests, benches, examples and the
# clang-tidy plugin off) and are not part of any measurement. Results go
# to build-bench/results/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/build-bench"
workloads=(solo-dc solo-phased corun-pairs sim-fig4)

# Each step stops the build on failure (set -e does not apply inside the
# `if` that reports it), so a failed library build never links stale
# libraries into the benchmark.
build_steps() {
  local jobs="$1"
  if [[ ! -f "$build/dws/Makefile" ]]; then
    cmake -S "$root" -B "$build/dws" -DCMAKE_BUILD_TYPE=Release \
      -DDWS_BUILD_TESTS=OFF -DDWS_BUILD_BENCH=OFF \
      -DDWS_BUILD_EXAMPLES=OFF -DDWS_BUILD_TIDY=OFF || return 1
  fi
  cmake --build "$build/dws" --target dws_harness -j "$jobs" || return 1
  if [[ ! -f "$build/bench/Makefile" ]]; then
    cmake -S "$root/benchmark" -B "$build/bench" \
      -DDWS_BUILD_DIR="$build/dws" || return 1
  fi
  cmake --build "$build/bench" -j "$jobs"
}

build_all() {
  mkdir -p "$build/results"
  local jobs
  jobs="$(nproc 2>/dev/null || echo 2)"
  ((jobs > 4)) && jobs=4
  local log="$build/build.log"
  # One build at a time per checkout.
  exec 9>"$build/.lock"
  if command -v flock >/dev/null; then flock 9; fi
  if ! build_steps "$jobs" >"$log" 2>&1; then
    echo "dws-bench: build failed, see $log" >&2
    tail -n 30 "$log" >&2
    exit 1
  fi
  exec 9>&-
}

git_rev() {
  if [[ -d "$root/.git" ]] && command -v git >/dev/null; then
    git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown
  else
    echo unknown
  fi
}

workload=""
smoke=0
trace=0
pass=()
while (($#)); do
  case "$1" in
    --workload) workload="${2:?--workload needs a value}"; shift 2 ;;
    --workload=*) workload="${1#*=}"; shift ;;
    --smoke) smoke=1; shift ;;
    --trace=*) trace="${1#*=}"; shift ;;
    --trace)
      if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then
        trace="$2"; shift 2
      else
        trace=1; shift
      fi
      ;;
    *) pass+=("$1"); shift ;;
  esac
done

build_all
bin="$build/bench/dws_bench"
rev="$(git_rev)"

if ((smoke)) && [[ -z "$workload" ]]; then
  out="$build/smoke"
  rm -rf "$out"
  mkdir -p "$out"
  for w in "${workloads[@]}"; do
    for t in 0 1; do
      # A failed run exits 1; check.py reports it from the log.
      "$bin" --workload "$w" --trace "$t" --smoke --seconds 0 \
        --out "$out" --git-rev "$rev" "${pass[@]}" >"$out/$w-trace$t.log" ||
        true
    done
  done
  exec python3 "$root/benchmark/check.py" "$root/BENCHMARK.json" "$out"
fi

if [[ -n "$workload" ]]; then
  ((smoke)) && pass+=(--smoke)
  exec "$bin" --workload "$workload" --trace "$trace" \
    --out "$build/results" --git-rev "$rev" "${pass[@]}"
fi

status=0
for w in "${workloads[@]}"; do
  "$bin" --workload "$w" --trace "$trace" --out "$build/results" \
    --git-rev "$rev" "${pass[@]}" || status=1
done
exit "$status"
