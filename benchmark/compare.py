#!/usr/bin/env python3
"""Compare dws-bench results from two commits, or summarize one set.

  compare.py summarize RESULTS... [-o OUT.json]
      Median, quartiles and spread (interquartile range over median) of
      every end-to-end metric per workload. With -o, also writes the set
      as one baseline file (the format of benchmark/results/seed-*.json).

  compare.py diff PARENT CHANGE
      The pair rule. Runs of the two commits are paired by workload and
      seed; make them by alternating which commit runs first, seed by
      seed. A gain counts only when the change wins at least 9 of every
      10 pairs (ties count for neither side) and the medians differ by
      more than the parent's interquartile range. Every (workload,
      end-to-end metric) is checked against its bound in BENCHMARK.json:
      worse by more than the bound is a REGRESSION; a parent spread wider
      than the bound is "unresolved" unless every change run beats every
      parent run. sim-fig4's simulated Fig. 4 is deterministic per seed
      and must stay bit-identical. Exits 1 on a regression, a failed run
      or a moved Fig. 4.

RESULTS, PARENT and CHANGE are result files written by dws_bench
(build-bench/results/*-e2e.json), directories holding them, or baseline
files written by `summarize -o`. Standard library only.
"""

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
MIN_PAIRS = 10


def load_bench(path):
    bench = json.loads(pathlib.Path(path).read_text())
    return {m["name"]: m for m in bench["end_to_end"]}


def load_runs(paths):
    """Untraced runs as dicts {workload, seed, correct, failed, metrics}."""
    runs = []
    for p in map(pathlib.Path, paths):
        files = sorted(p.glob("*-e2e.json")) if p.is_dir() else [p]
        for f in files:
            doc = json.loads(f.read_text())
            for run in doc.get("runs", [doc]):
                if run.get("trace"):
                    continue
                runs.append({
                    "workload": run["workload"],
                    "seed": run["seed"],
                    "correct": run["correct"],
                    "attempted": run["attempted"],
                    "failed": run["failed"],
                    "metrics": {k: (v["value"] if isinstance(v, dict) else v)
                                for k, v in run["metrics"].items()},
                    "fig4": run.get("fig4"),
                    "provenance": run.get("provenance", {}),
                })
    if not runs:
        sys.exit(f"compare.py: no untraced results in {', '.join(paths)}")
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def by_workload(runs):
    out = {}
    for r in runs:
        out.setdefault(r["workload"], {})[r["seed"]] = r
    return out


def summary(runs, bench):
    table = {}
    for workload, seeds in sorted(by_workload(runs).items()):
        for name in bench:
            values = [r["metrics"][name] for r in seeds.values()
                      if name in r["metrics"]]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            table.setdefault(workload, {})[name] = {
                "n": len(values), "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else float("inf"),
            }
    return table


def cmd_summarize(args, bench):
    runs = load_runs(args.results)
    table = summary(runs, bench)
    print(f"{'workload':<12} {'metric':<15} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>8} {'bound':>7}")
    for workload, metrics in table.items():
        for name, s in metrics.items():
            bound = bench[name]["bound"]
            flag = "" if s["spread"] <= bound / 3 else "  wide"
            print(f"{workload:<12} {name:<15} {s['n']:>3} {s['median']:>12.6g} "
                  f"{s['q1']:>12.6g} {s['q3']:>12.6g} {s['spread']:>8.2%} "
                  f"{bound:>7.0%}{flag}")
    failed = sum(r["failed"] for r in runs)
    print(f"{len(runs)} runs, {failed} failed operations")
    if args.output:
        doc = {
            "schema": "dws-bench-baseline-v1",
            "provenance": {k: v for k, v in runs[0]["provenance"].items()
                           if k != "seed"},
            "summary": table,
            "runs": [{k: r[k] for k in ("workload", "seed", "correct",
                                        "attempted", "failed", "metrics",
                                        "fig4")}
                     for r in runs],
        }
        pathlib.Path(args.output).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if failed == 0 else 1


def cmd_diff(args, bench):
    parent = by_workload(load_runs([args.parent]))
    change = by_workload(load_runs([args.change]))
    status = 0
    print(f"{'workload':<12} {'metric':<15} {'pairs':>5} {'parent p50':>11} "
          f"{'[q1, q3]':>23} {'change p50':>11} {'[q1, q3]':>23} "
          f"{'wins':>5}  verdict")
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, {}), change.get(workload, {})
        seeds = sorted(set(p_runs) & set(c_runs))
        if any(c_runs[s]["failed"] > 0 for s in seeds):
            print(f"{workload:<12} change has failed operations")
            status = 1
        if workload == "sim-fig4":
            moved = [s for s in seeds
                     if p_runs[s]["fig4"] != c_runs[s]["fig4"]]
            print(f"{workload:<12} simulated Fig. 4: "
                  + (f"DIFFERS on seeds {moved}" if moved else
                     f"identical on {len(seeds)} seeds"))
            if moved:
                status = 1
        for name, m in bench.items():
            pairs = [(p_runs[s]["metrics"][name], c_runs[s]["metrics"][name])
                     for s in seeds]
            if not pairs:
                print(f"{workload:<12} {name:<15} no paired runs")
                continue
            lower = m["better"] == "lower"
            ps, cs = [p for p, _ in pairs], [c for _, c in pairs]
            pq1, pmed, pq3 = quartiles(ps)
            cq1, cmed, cq3 = quartiles(cs)

            def better(c, p):
                return c < p if lower else c > p

            wins = sum(better(c, p) for p, c in pairs)
            worse_by = ((cmed - pmed) if lower else (pmed - cmed)) / pmed
            all_better = all(better(c, p) for c in cs for p in ps)
            if len(pairs) < MIN_PAIRS:
                verdict = f"too few pairs (need {MIN_PAIRS})"
            elif (wins >= 0.9 * len(pairs) and better(cmed, pmed)
                  and abs(cmed - pmed) > pq3 - pq1):
                verdict = f"gain {-worse_by:+.1%}"
            elif worse_by > m["bound"]:
                verdict = f"REGRESSION {worse_by:+.1%} > {m['bound']:.0%}"
                status = 1
            elif (pq3 - pq1) / pmed > m["bound"] and not all_better:
                verdict = "unresolved (parent spread wider than the bound)"
            else:
                verdict = f"ok ({worse_by:+.1%} worse, bound {m['bound']:.0%})"
            print(f"{workload:<12} {name:<15} {len(pairs):>5} {pmed:>11.5g} "
                  f"[{pq1:>10.5g}, {pq3:>10.5g}] {cmed:>11.5g} "
                  f"[{cq1:>10.5g}, {cq3:>10.5g}] {wins:>5}  {verdict}")
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--bench", default=str(ROOT / "BENCHMARK.json"))
    sub = ap.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("summarize")
    s.add_argument("results", nargs="+")
    s.add_argument("-o", "--output")
    d = sub.add_parser("diff")
    d.add_argument("parent")
    d.add_argument("change")
    args = ap.parse_args()
    bench = load_bench(args.bench)
    return cmd_summarize(args, bench) if args.cmd == "summarize" \
        else cmd_diff(args, bench)


if __name__ == "__main__":
    sys.exit(main())
