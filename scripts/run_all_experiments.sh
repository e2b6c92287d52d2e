#!/usr/bin/env bash
# Regenerate every table and figure of the paper (plus the extension
# experiments) into results/, mirroring EXPERIMENTS.md.
#
#   scripts/run_all_experiments.sh [build-dir] [results-dir]
set -euo pipefail

BUILD="${1:-build}"
OUT="${2:-results}"
mkdir -p "$OUT"

if [ ! -d "$BUILD/bench" ]; then
  echo "build directory '$BUILD' not found — run:" >&2
  echo "  cmake -B $BUILD -G Ninja && cmake --build $BUILD" >&2
  exit 1
fi

BENCHES=(
  bench_table2_baselines bench_fig4_mixes bench_fig5_nc bench_fig6_tsleep
  bench_ablation_coordinator_period
  bench_single_program_overhead bench_scalability_multiprog
  bench_asymmetric bench_cache_model bench_machine_width
  bench_fig4_confidence bench_timeline bench_deadlock_overhead
)

# Fail fast, before any figure is regenerated, if a bench binary is
# missing or predates a first-party source — a stale build silently
# produces tables that do not match the checked-out code. Rebuild, or
# set DWS_SKIP_CHECKS=1 to run anyway (e.g. sources touched only by
# formatting).
if [ "${DWS_SKIP_CHECKS:-0}" != "1" ]; then
  missing=()
  stale=()
  for name in "${BENCHES[@]}"; do
    bin="$BUILD/bench/$name"
    if [ ! -x "$bin" ]; then
      missing+=("$name")
    elif [ -n "$(find src bench \( -name '*.cpp' -o -name '*.hpp' \) \
                   -newer "$bin" -print -quit 2>/dev/null)" ]; then
      stale+=("$name")
    fi
  done
  if [ "${#missing[@]}" -gt 0 ] || [ "${#stale[@]}" -gt 0 ]; then
    [ "${#missing[@]}" -gt 0 ] && echo "missing bench binaries: ${missing[*]}" >&2
    [ "${#stale[@]}" -gt 0 ] && echo "stale bench binaries (older than sources): ${stale[*]}" >&2
    echo "rebuild first: cmake --build $BUILD -j  (or DWS_SKIP_CHECKS=1 to override)" >&2
    exit 1
  fi

  # Preflight the correctness suites so every regenerated figure is
  # backed by a passing check/crash/race run; record which labels the
  # build actually provides (race and race-fasttrack are absent under
  # -DDWS_RACE=OFF).
  LABELS_RUN=()
  LABELS_EMPTY=()
  for label in check crash race race-fasttrack race-deadlock locality; do
    n=$(ctest --test-dir "$BUILD" -N -L "$label" 2>/dev/null \
          | sed -n 's/^Total Tests: //p')
    if [ "${n:-0}" -gt 0 ]; then
      echo "== ctest -L $label ($n tests)"
      ctest --test-dir "$BUILD" -L "$label" --output-on-failure
      LABELS_RUN+=("$label")
    else
      LABELS_EMPTY+=("$label")
    fi
  done
fi

run() {
  local name="$1"; shift
  echo "== $name"
  "$BUILD/bench/$name" "$@" | tee "$OUT/$name.txt"
  echo
}

run bench_table2_baselines
run bench_fig4_mixes
run bench_fig5_nc
run bench_fig6_tsleep
run bench_ablation_coordinator_period
run bench_single_program_overhead
run bench_scalability_multiprog
run bench_asymmetric
run bench_cache_model
run bench_machine_width
run bench_fig4_confidence --seeds=5
run bench_timeline --out="$OUT"
run bench_deadlock_overhead --out="$OUT/BENCH_deadlock_overhead.json"

# Layout audit: regenerate the cache-line map of every concurrent struct
# and diff it against the committed golden — an unreviewed layout change
# fails the whole experiment run before any figure is trusted.
LAYOUT_AUDIT="$BUILD/tools/layout_audit/layout_audit"
if [ -x "$LAYOUT_AUDIT" ]; then
  echo "== layout_audit"
  "$LAYOUT_AUDIT" --out "$OUT/layout_audit.json" --golden docs/layout_golden.json
  echo
else
  echo "missing $LAYOUT_AUDIT — rebuild first" >&2
  exit 1
fi

# Guardrail-artifact schema validation: BENCH_*.json files are consumed
# by cross-PR comparisons, so a bench
# that silently changes its output shape corrupts every downstream
# reader. Fail fast here, at generation time, instead.
#
# Shared schema: top-level `bench` (string), `reps`, `tolerance`,
# `pass` (bool), `legs` (array); every leg carries `workload` plus at
# least one metric object with `mean`, `cv` and `n`; a leg declaring a
# `bound` must also record `within_bound`.
validate_bench_schema() {
  local py
  py=$(command -v python3 || command -v python || true)
  if [ -z "$py" ]; then
    echo "WARNING: python3 not found — BENCH_*.json schema not validated" >&2
    return 0
  fi
  "$py" - "$@" <<'PYEOF'
import json, sys

def err(path, msg):
    print(f"BENCH schema drift in {path}: {msg}", file=sys.stderr)
    return 1

def is_metric(v):
    return isinstance(v, dict) and {"mean", "cv", "n"} <= v.keys()

failures = 0
for path in sys.argv[1:]:
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        failures += err(path, f"unreadable or invalid JSON ({e})")
        continue
    for key, typ in (("bench", str), ("reps", (int, float)),
                     ("tolerance", (int, float)), ("pass", bool),
                     ("legs", list)):
        if not isinstance(doc.get(key), typ):
            failures += err(path, f"missing or mistyped top-level '{key}'")
    for i, leg in enumerate(doc.get("legs") or []):
        if not isinstance(leg, dict):
            failures += err(path, f"legs[{i}] is not an object")
            continue
        if not isinstance(leg.get("workload"), str):
            failures += err(path, f"legs[{i}] missing 'workload'")
        if not any(is_metric(v) for v in leg.values()):
            failures += err(
                path, f"legs[{i}] has no metric object with mean/cv/n")
        if "bound" in leg and "within_bound" not in leg:
            failures += err(
                path, f"legs[{i}] declares 'bound' without 'within_bound'")
sys.exit(1 if failures else 0)
PYEOF
}

# Only the artifacts this run wrote: a stale BENCH_*.json left in $OUT
# by an older checkout (e.g. of a retired bench) is neither validated
# nor copied over the committed record at the repo root.
BENCH_ARTIFACTS=("$OUT/BENCH_deadlock_overhead.json")
echo "== validating ${#BENCH_ARTIFACTS[@]} BENCH_*.json artifact(s)"
validate_bench_schema "${BENCH_ARTIFACTS[@]}"
echo "   schema ok"

# Layout-audit schema validation: layout_audit.json is consumed by the
# CI layout gate and by humans reviewing golden diffs; same fail-fast
# policy as the bench artifacts.
validate_layout_schema() {
  local py
  py=$(command -v python3 || command -v python || true)
  if [ -z "$py" ]; then
    echo "WARNING: python3 not found — layout_audit.json schema not validated" >&2
    return 0
  fi
  "$py" - "$1" <<'PYEOF'
import json, sys

path = sys.argv[1]
failures = 0
def err(msg):
    global failures
    print(f"layout-audit schema drift in {path}: {msg}", file=sys.stderr)
    failures += 1

try:
    with open(path) as f:
        doc = json.load(f)
except (OSError, ValueError) as e:
    err(f"unreadable or invalid JSON ({e})")
    sys.exit(1)

if doc.get("schema") != "dws-layout-audit-v1":
    err("missing or unknown top-level 'schema'")
for key in ("cache_line_bytes", "pointer_bytes"):
    if not isinstance(doc.get(key), int):
        err(f"missing or mistyped top-level '{key}'")
structs = doc.get("structs")
if not isinstance(structs, list) or not structs:
    err("missing or empty 'structs'")
    structs = []
for i, s in enumerate(structs):
    for key, typ in (("name", str), ("size", int), ("align", int),
                     ("cache_lines", int), ("packed_ok", bool),
                     ("fields", list), ("conflicts", list)):
        if not isinstance(s.get(key), typ):
            err(f"structs[{i}] missing or mistyped '{key}'")
    for j, f in enumerate(s.get("fields") or []):
        for key in ("name", "offset", "size", "align", "lines", "domain"):
            if key not in f:
                err(f"structs[{i}].fields[{j}] missing '{key}'")
sys.exit(1 if failures else 0)
PYEOF
}
echo "== validating layout_audit.json schema"
validate_layout_schema "$OUT/layout_audit.json"
echo "   schema ok"

# The guardrail artifacts double as the repo's committed reference
# numbers (BENCH_*.json at the repo root): refresh them from this run so
# the committed copies always describe the code that produced them.
for artifact in "${BENCH_ARTIFACTS[@]}"; do
  cp "$artifact" "$(basename "$artifact")"
  echo "refreshed $(basename "$artifact") at the repo root"
done

echo "all experiment outputs written to $OUT/"
if [ "${DWS_SKIP_CHECKS:-0}" != "1" ]; then
  echo "ctest labels exercised: ${LABELS_RUN[*]:-none}"
  [ "${#LABELS_EMPTY[@]}" -gt 0 ] \
    && echo "ctest labels with no tests in this build: ${LABELS_EMPTY[*]}"
fi
