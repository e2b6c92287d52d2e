#!/usr/bin/env bash
# Parent-vs-change benchmark pairs, run the way benchmark/README.md
# ("Comparing two commits") prescribes: one parent run and one change run
# per seed, the order alternating from seed to seed, then the pair rule of
# `benchmark/compare.py diff`.
#
#   scripts/bench_pair.sh PARENT_REV WORKLOAD SEEDS [run.sh options...]
#
#   PARENT_REV  any git revision (the change is this checkout's working
#               tree, uncommitted edits included)
#   WORKLOAD    one of benchmark/run.sh's workloads, e.g. solo-phased
#   SEEDS       N for seeds 1..N, or a quoted list such as "3 5 8"
#   options     passed to every run, e.g. --seconds 6 (compare.py reads
#               untraced runs only, so leave out --trace 1)
#
# The parent's files are exported once into build-bench/pair-<rev>/ (an
# export, not a worktree: benchmark/run.sh builds from source and needs
# no git metadata), and each side builds into its own build-bench/.
# Runs land in build-bench/pairs/<rev>-<workload>/runs-{parent,change}/.
# Exits with compare.py's status: 1 on a regression or a failed run.
set -euo pipefail

if (($# < 3)); then
  sed -n '2,20p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
fi
parent_rev="$1" workload="$2" seeds="$3"
shift 3

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
rev="$(git -C "$root" rev-parse --short=12 "$parent_rev^{commit}")"
parent="$root/build-bench/pair-$rev"
out="$root/build-bench/pairs/$rev-$workload"

if [[ ! -f "$parent/benchmark/run.sh" ]]; then
  rm -rf "$parent"
  mkdir -p "$parent"
  git -C "$root" archive "$rev" | tar -x -C "$parent"
fi
mkdir -p "$out/runs-parent" "$out/runs-change"

if [[ "$seeds" =~ ^[0-9]+$ ]]; then
  seeds="$(seq 1 "$seeds")"
fi

run_side() {  # side seed options...
  local side="$1" seed="$2" dir="$root"
  shift 2
  [[ "$side" == parent ]] && dir="$parent"
  echo "bench_pair: $workload seed $seed $side" >&2
  # A failed run still leaves its result file; compare.py reports it.
  "$dir/benchmark/run.sh" --workload "$workload" --seed "$seed" "$@" \
    --out "$out/runs-$side" >/dev/null || true
}

for s in $seeds; do
  if ((s % 2)); then
    order=(parent change)
  else
    order=(change parent)
  fi
  for side in "${order[@]}"; do
    run_side "$side" "$s" "$@"
  done
done

exec python3 "$root/benchmark/compare.py" diff "$out/runs-parent" \
  "$out/runs-change"
