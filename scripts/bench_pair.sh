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
# After the diff it prints, per kernel and side, the median over seeds of
# run_ms_p50, serial_ms, speedup (serial_ms / run_ms_p50), cpu_ms (the
# cell's CPU time per run, all its programs together), busy (cpu_ms /
# run_ms_p50: the cores the run kept busy on average, so ~1 means it ran
# on one core) and cpu/serial (cpu_ms / serial_ms: the CPU it paid per
# unit of serial work), read from the result files' cells[] and
# cells[].programs[]. A kernel that fanned out shows speedup rising with
# busy; one that only paid CPU shows busy and cpu/serial rising alone.
# Exits with compare.py's status: 1 on a regression or a failed run.
set -euo pipefail

if (($# < 3)); then
  sed -n '2,24p' "$0" | sed 's/^# \{0,1\}//' >&2
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

status=0
python3 "$root/benchmark/compare.py" diff "$out/runs-parent" \
  "$out/runs-change" || status=$?

# Per-kernel view: which kernels a geomean moved with. One row per kernel
# and side, each column the median over seeds of that side's result files.
python3 - "$out/runs-parent" "$out/runs-change" <<'PY' || true
import glob, json, statistics, sys

rows = {}
for side, d in (("parent", sys.argv[1]), ("change", sys.argv[2])):
    for path in sorted(glob.glob(f"{d}/*-e2e.json")):
        try:
            cells = json.load(open(path))["cells"]
        except (ValueError, KeyError):
            continue
        for cell in cells:
            for p in cell["programs"]:
                run, serial = p["run_ms_p50"], p["serial_ms"]
                if not run > 0 or not serial > 0:
                    continue  # sim-fig4 cells have no serial reference
                key = p["kernel"] if cell["name"] == p["kernel"] else \
                    f"{cell['name']}:{p['kernel']}"
                cpu = cell["cpu_ms_per_run"]
                rows.setdefault(key, {}).setdefault(side, []).append(
                    (run, serial, serial / run, cpu, cpu / run, cpu / serial))
if rows:
    print(f"\n{'kernel':<24} {'side':<7} {'seeds':>5} {'run_ms_p50':>11}"
          f" {'serial_ms':>10} {'speedup':>8} {'cpu_ms':>9} {'busy':>6}"
          f" {'cpu/serial':>10}")
for key, sides in rows.items():
    for side in ("parent", "change"):
        v = sides.get(side, [])
        if v:
            med = [statistics.median(x[i] for x in v) for i in range(6)]
            print(f"{key:<24} {side:<7} {len(v):>5} {med[0]:>11.3f}"
                  f" {med[1]:>10.3f} {med[2]:>8.3f} {med[3]:>9.3f}"
                  f" {med[4]:>6.2f} {med[5]:>10.3f}")
PY
exit "$status"
