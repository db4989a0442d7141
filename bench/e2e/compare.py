#!/usr/bin/env python3
"""Compares two sets of bench_e2e run records against BENCHMARK.json.

    compare.py BASE_DIR NEW_DIR [--benchmark BENCHMARK.json]

Each directory holds the run records bench/e2e/run.sh writes (one JSON
file per workload, seed and pass). For every (workload, host metric of
BENCHMARK.json) it prints both sides' median, quartiles and spread
(quartile distance / median) and a verdict:

  worse       the new median is worse than the base median by more than
              the metric's bound (fails);
  unresolved  either side's spread is wider than the bound, and not every
              new run beats every base run;
  ok          neither of the above.

Host verdicts need at least MIN_RUNS runs (distinct seeds) on each side;
with fewer the workload is reported as `insufficient runs` and fails.
Model metrics (simulated outputs, listed in each record's model_metrics)
must be `identical` seed by seed; a `MISMATCH` fails. It also fails when a
run is incorrect or the share of failed operations rises. Per-layer
metrics of traced runs are printed as medians, without a verdict (they
have no bound). Passing the same directory twice reports each metric's
run-to-run spread against its bound. Exits 1 on any failure, else 0.
"""

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
MIN_RUNS = 5


def load_runs(directory):
    runs = []
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        with open(path) as f:
            run = json.load(f)
        if {"workload", "seed", "trace", "metrics"} <= run.keys():
            runs.append(run)
    if not runs:
        sys.exit(f"compare.py: no run records in {directory}")
    return runs


def by_workload(runs, trace):
    out = {}
    for run in runs:
        if run["trace"] == trace:
            out.setdefault(run["workload"], []).append(run)
    return out


def values(runs, metric):
    """{seed: value} for runs that measured `metric`."""
    out = {}
    for run in runs:
        entry = run["metrics"].get(metric, {})
        if "value" in entry and entry["value"] is not None:
            out[run["seed"]] = entry["value"]
    return out


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(xs):
    q1, med, q3 = quartiles(xs)
    return (q3 - q1) / abs(med) if med else float("inf")


def model_names(runs):
    names = []
    for run in runs:
        names += [n for n in run.get("model_metrics", []) if n not in names]
    return names


def compare_host(base, new, better, bound):
    b1, bmed, b3 = quartiles(base)
    n1, nmed, n3 = quartiles(new)
    change = (nmed - bmed) / abs(bmed) if bmed else 0.0
    worse_by = change if better == "lower" else -change
    all_better = (max(new) < min(base)) if better == "lower" else (min(new) > max(base))
    if worse_by > bound:
        verdict = "worse"
    elif max(spread(base), spread(new)) > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "ok"
    row = (f"{bmed:.6g} [{b1:.6g}, {b3:.6g}] {spread(base) * 100:.1f}%",
           f"{nmed:.6g} [{n1:.6g}, {n3:.6g}] {spread(new) * 100:.1f}%",
           f"{change * 100:+.1f}%")
    return verdict, row


def compare(args, bench):
    base_runs, new_runs = load_runs(args.base), load_runs(args.new)
    failures = 0
    for run in base_runs + new_runs:
        if not run.get("correct", False):
            print(f"FAIL: incorrect run {run['workload']} seed {run['seed']}")
            failures += 1

    base, new = by_workload(base_runs, 0), by_workload(new_runs, 0)
    print(f"{'workload':15} {'metric':17} {'base median [q1, q3] spread':40} "
          f"{'new median [q1, q3] spread':40} {'change':>8}  verdict")
    for workload in sorted(base.keys() & new.keys()):
        b_runs, n_runs = base[workload], new[workload]
        if min(len(b_runs), len(n_runs)) < MIN_RUNS:
            print(f"{workload:15} insufficient runs: {len(b_runs)} base, "
                  f"{len(n_runs)} new, need {MIN_RUNS} distinct seeds a side")
            failures += 1
        else:
            for spec in bench["end_to_end"]:
                name = spec["name"]
                bv, nv = values(b_runs, name), values(n_runs, name)
                if not bv or not nv:
                    print(f"{workload:15} {name:17} unmeasured on one side")
                    continue
                verdict, row = compare_host(list(bv.values()), list(nv.values()),
                                            spec["better"], spec["bound"])
                failures += verdict == "worse"
                print(f"{workload:15} {name:17} {row[0]:40} {row[1]:40} {row[2]:>8}  "
                      f"{verdict} (bound {spec['bound'] * 100:.0f}%)")
        for name in model_names(b_runs + n_runs):
            bv, nv = values(b_runs, name), values(n_runs, name)
            common = sorted(bv.keys() & nv.keys())
            diff = [s for s in common if bv[s] != nv[s]]
            verdict = "MISMATCH" if diff else ("identical" if common else "unpaired")
            failures += bool(diff)
            print(f"{workload:15} {name:17} {'seeds ' + str(common):40} "
                  f"{'differ at ' + str(diff) if diff else '':40} {'':>8}  {verdict}")
        b_share = sum(r["failed"] for r in b_runs) / max(1, sum(r["attempted"] for r in b_runs))
        n_share = sum(r["failed"] for r in n_runs) / max(1, sum(r["attempted"] for r in n_runs))
        if n_share > b_share:
            print(f"FAIL: {workload} failed-operation share rose "
                  f"{b_share:.3g} -> {n_share:.3g}")
            failures += 1
    for workload in sorted(base.keys() ^ new.keys()):
        print(f"{workload:15} present on one side only")

    base_t, new_t = by_workload(base_runs, 1), by_workload(new_runs, 1)
    for workload in sorted(base_t.keys() & new_t.keys()):
        print(f"\nper-layer medians, {workload} (no bound)")
        for spec in bench["per_layer"]:
            bv, nv = values(base_t[workload], spec["name"]), values(new_t[workload], spec["name"])
            if bv and nv:
                print(f"  {spec['name']:26} {statistics.median(bv.values()):14.6g} "
                      f"{statistics.median(nv.values()):14.6g} {spec['unit']}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    failures = compare(args, bench)
    print(f"\n{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
