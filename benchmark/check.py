#!/usr/bin/env python3
"""Self-check of a dws-bench smoke run against BENCHMARK.json.

  check.py BENCHMARK.json SMOKE_DIR

SMOKE_DIR holds, for every workload W and trace mode T in {0, 1}, the
stdout of one run as W-traceT.log and its result file. The check fails
when BENCHMARK.json breaks its own format or gives a metric a bound above
its ceiling (MAX_BOUND), when a declared metric is missing for a workload,
when an undeclared metric is emitted, when a name breaks [A-Za-z0-9_.-]+,
when a unit differs from its declaration, or when any operation failed.
Standard library only.
"""

import json
import math
import pathlib
import re
import sys

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# The largest bound an end-to-end metric may carry: the widest spread seen
# across independent 10-seed sets, rounded up (README.md, "Bounds"). The
# metrics divided by serial runs get the most room, because a busy shared
# host slows serial runs far more than parallel ones.
MAX_BOUND = {"setup_s": 0.25, "speedup": 0.25, "cpu_vs_serial": 0.20,
             "max_rss_mb": 0.05}
MAX_BOUND_OTHER = 0.10


def check_bench(bench, errors):
    expected = {"command", "paths", "run_seconds", "workloads",
                "end_to_end", "per_layer"}
    if set(bench) != expected:
        errors.append(f"BENCHMARK.json keys {sorted(bench)} != "
                      f"{sorted(expected)}")
    if not 2 <= len(bench["workloads"]) <= 8:
        errors.append("BENCHMARK.json needs 2 to 8 workloads")
    names = [w["name"] for w in bench["workloads"]]
    for group in ("end_to_end", "per_layer"):
        names += [m["name"] for m in bench[group]]
        for m in bench[group]:
            if not UNIT.fullmatch(m["unit"]):
                errors.append(f"bad unit {m['unit']!r} for {m['name']}")
            if m["better"] not in ("lower", "higher"):
                errors.append(f"bad direction for {m['name']}")
    for n in names:
        if not NAME.fullmatch(n):
            errors.append(f"bad name {n!r}")
    if len(names) != len(set(names)):
        errors.append("a name is used twice in BENCHMARK.json")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, bound in bounds.items():
        ceiling = MAX_BOUND.get(name, MAX_BOUND_OTHER)
        if not 0 < bound <= ceiling:
            errors.append(f"bound {bound} of {name} is outside (0, {ceiling}]")
    if bounds.get("setup_s") != max(bounds.values()):
        errors.append("setup_s must exist and carry the largest bound")


def check_run(bench, workload, trace, smoke_dir, errors):
    declared = bench["per_layer" if trace else "end_to_end"]
    log = smoke_dir / f"{workload}-trace{trace}.log"
    lines = log.read_text().strip().splitlines() if log.exists() else []
    if not lines:
        errors.append(f"{log.name}: no output")
        return
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        errors.append(f"{log.name}: last line is not JSON")
        return
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{log.name}: result keys {sorted(result)}")
        return
    if not result["correct"] or result["failed"] != 0:
        errors.append(f"{log.name}: correct={result['correct']} "
                      f"failed={result['failed']} (failed_frac must be 0)")
    if result["attempted"] < 1:
        errors.append(f"{log.name}: nothing attempted")
    emitted = result["metrics"]
    for name in emitted:
        if not NAME.fullmatch(name):
            errors.append(f"{log.name}: bad metric name {name!r}")
    units = {m["name"]: m["unit"] for m in declared}
    for name in sorted(set(units) - set(emitted)):
        errors.append(f"{log.name}: declared metric {name} missing")
    for name in sorted(set(emitted) - set(units)):
        errors.append(f"{log.name}: undeclared metric {name} emitted")
    for name, m in emitted.items():
        if name in units and m.get("unit") != units[name]:
            errors.append(f"{log.name}: {name} unit {m.get('unit')!r} "
                          f"!= declared {units[name]!r}")
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{log.name}: {name} value {value!r}")
        elif not trace and value <= 0:
            errors.append(f"{log.name}: end-to-end {name} is {value}")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    bench = json.loads(pathlib.Path(sys.argv[1]).read_text())
    smoke_dir = pathlib.Path(sys.argv[2])
    errors = []
    check_bench(bench, errors)
    for w in bench["workloads"]:
        for trace in (0, 1):
            check_run(bench, w["name"], trace, smoke_dir, errors)
    for e in errors:
        print(f"FAIL {e}")
    runs = 2 * len(bench["workloads"])
    print(f"dws-bench smoke: {runs} runs, "
          f"{'PASS' if not errors else f'{len(errors)} problems'}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
