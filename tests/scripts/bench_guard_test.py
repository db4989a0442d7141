#!/usr/bin/env python3
"""Self-test of the micro-suite table in scripts/bench_guard.py.

Needs no benchmark binaries. Every guard must fail, with its own message,
on synthetic suite JSON that breaks only its bound, and pass on the same
input with the bound met. Folding the raw suites of
bench_deploy_legacy.json (BENCH_deploy.json as the retired scripts/bench.sh
wrote it from google-benchmark runs) must reproduce every derived value in
it, and the committed BENCH_deploy.json must be the fold of its own raw
suites.

  python3 tests/scripts/bench_guard_test.py
"""
import contextlib
import copy
import io
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(ROOT, "scripts"))
import bench_guard as bg  # noqa: E402

SEQ32 = "BM_ClusterRunSharded/nodes32/1048576/real_time"
PAR32 = "BM_ClusterRunParallel/nodes32/1048576/real_time"
PAR32_MID = "BM_ClusterRunParallel/nodes32/262144/real_time"
SEQ_F8 = "BM_ClusterRunSharded/faults8/96000/real_time"
PAR_F8 = "BM_ClusterRunParallel/faults8/96000/real_time"

# The derived values that are timing ratios, by path.
TIMING_RATIOS = [
    ("kernel_bigo", "BM_GilSimulationThreads", "speedup_at_512"),
    ("kernel_bigo", "BM_CpuShareSimulation", "speedup_at_512"),
    ("cluster_hotpath", "speedup_at_65536"),
    ("parallel_loop", "nodes8", "speedup_at_1048576"),
    ("parallel_loop", "nodes32", "speedup_at_1048576"),
    ("parallel_loop", "faults8", "speedup"),
    ("recorder_overhead", "overhead_pct"),
]
DERIVED = ["kernel_bigo", "cluster_hotpath", "parallel_loop",
           "router_policies", "recorder_overhead"]
# Derived from suite entries the legacy runs predate, so only the
# committed BENCH_deploy.json carries them.
ADDED = ["wrap_plan_backend"]


def doc(*entries):
    return {"context": {"library_build_type": "debug"},
            "benchmarks": list(entries)}


def run(name, real_time=1.0, **counters):
    return {"name": name, "run_name": name, "run_type": "iteration",
            "real_time": real_time, **counters}


def fit(family, big_o):
    return {"name": family + "_BigO", "run_name": family,
            "run_type": "aggregate", "aggregate_name": "BigO",
            "big_o": big_o}


def aggregate(name, stat, real_time):
    return {"name": name + "_" + stat, "run_name": name,
            "run_type": "aggregate", "aggregate_name": stat,
            "real_time": real_time}


def guard(suite, i=0):
    return next(s for s in bg.SUITES if s.name == suite).guards[i]


def check(suite, i, d, cpus=4):
    with contextlib.redirect_stdout(io.StringIO()):
        return bg.check(guard(suite, i)[1], d, cpus)


def leaf(tree, path):
    for key in path:
        tree = tree[key]
    return tree


def load(name):
    with open(name) as f:
        return json.load(f)


class GuardTest(unittest.TestCase):
    def assert_fails(self, errs, message):
        self.assertEqual(len(errs), 1, errs)
        self.assertIn(message, errs[0])

    def test_invocations(self):
        quick = "--benchmark_min_time=0.01"
        self.assertEqual(
            [(s.name, args) for s in bg.SUITES for args, _ in s.guards], [
                ("micro_predictor",
                 ["--benchmark_filter=BM_GilSimulationThreads/", quick]),
                ("micro_predictor",
                 ["--benchmark_filter=BM_WrapPlanBackend",
                  "--benchmark_min_time=0.05", "--benchmark_repetitions=3",
                  "--benchmark_report_aggregates_only=true"]),
                ("micro_cluster", [quick]),
                ("micro_router", [quick]),
                ("micro_parallel", ["--benchmark_filter=nodes32", quick]),
                ("micro_parallel",
                 ["--benchmark_filter=faults8", "--benchmark_min_time=0.1",
                  "--benchmark_repetitions=5",
                  "--benchmark_report_aggregates_only=true"]),
            ])

    def test_gil_kernel_fit(self):
        family = "BM_GilSimulationThreads"
        self.assertEqual(check("micro_predictor", 0, doc(fit(family, "NlgN"))),
                         [])
        for label in ("N^2", "N^3"):
            self.assert_fails(
                check("micro_predictor", 0, doc(fit(family, label))),
                family + " regressed to " + label)
        self.assert_fails(check("micro_predictor", 0, doc()),
                          "no complexity fit emitted for " + family)

    def backend(self, speedup):
        return doc(aggregate(bg.RUN, "median", 100.0 * speedup),
                   aggregate(bg.LATENCY, "median", 100.0))

    def test_backend_latency_entry(self):
        self.assertEqual(check("micro_predictor", 1, self.backend(2.0)), [])
        self.assert_fails(check("micro_predictor", 1, self.backend(1.9)),
                          "finra100 is 1.90x, want >= 2.00")
        self.assert_fails(check("micro_predictor", 1, doc()), "missing")

    def cluster(self, big_o, speedup):
        return doc(fit("BM_ClusterRun", big_o),
                   run("BM_ClusterRun/65536", 10.0),
                   run("BM_ClusterRunReference/65536", 10.0 * speedup))

    def test_serving_loop(self):
        self.assertEqual(check("micro_cluster", 0, self.cluster("NlgN", 2.0)),
                         [])
        self.assert_fails(check("micro_cluster", 0, self.cluster("NlgN", 1.9)),
                          "BM_ClusterRun/65536 is 1.90x, want >= 2.00")
        self.assert_fails(check("micro_cluster", 0, self.cluster("N^2", 7.0)),
                          "BM_ClusterRun regressed to N^2")

    def nodes32(self, big_o, growth, speedup):
        return doc(fit("BM_ClusterRunParallel/nodes32/real_time", big_o),
                   run(PAR32_MID, 100.0 / growth), run(PAR32, 100.0),
                   run(SEQ32, 100.0 * speedup))

    def test_parallel_loop_fit(self):
        # A superlinear label alone passes while the growth stays inside
        # the N log N envelope; with N^2-like growth it fails.
        self.assertEqual(check("micro_parallel", 0,
                               self.nodes32("N^2", 4.4, 2.5)), [])
        self.assertEqual(check("micro_parallel", 0,
                               self.nodes32("NlgN", 16.0, 2.5)), [])
        self.assert_fails(check("micro_parallel", 0,
                                self.nodes32("N^2", 16.0, 2.5)),
                          "nodes32/real_time regressed to N^2")
        missing = self.nodes32("NlgN", 4.4, 2.5)
        missing["benchmarks"] = [b for b in missing["benchmarks"]
                                 if b["name"] != PAR32_MID]
        self.assert_fails(check("micro_parallel", 0, missing), "missing")

    def test_parallel_loop_speedup(self):
        slow = self.nodes32("NlgN", 4.4, 1.9)
        self.assert_fails(check("micro_parallel", 0, slow, cpus=4),
                          "is 1.90x, want >= 2.00")
        self.assertEqual(check("micro_parallel", 0, slow, cpus=3), [])
        self.assertEqual(check("micro_parallel", 0,
                               self.nodes32("NlgN", 4.4, 2.0), cpus=4), [])

    def faults8(self, slowdown):
        # Means deliberately break the bound: the guard reads medians.
        return doc(aggregate(SEQ_F8, "mean", 100.0),
                   aggregate(SEQ_F8, "median", 100.0),
                   aggregate(PAR_F8, "mean", 200.0),
                   aggregate(PAR_F8, "median", 100.0 * slowdown))

    def test_parallel_loop_faults8(self):
        self.assertEqual(check("micro_parallel", 1, self.faults8(1.10)), [])
        self.assert_fails(check("micro_parallel", 1, self.faults8(1.11)),
                          "faults8/96000/real_time is 1.11x, want <= 1.10")
        self.assertEqual(check("micro_parallel", 1, self.faults8(1.11),
                               cpus=2), [])
        self.assert_fails(check("micro_parallel", 1, doc()), "missing")

    def router(self, warm, rand):
        return doc(run("BM_RouterPolicy/warm_affinity", cold_starts=warm),
                   run("BM_RouterPolicy/random", cold_starts=rand))

    def test_router(self):
        self.assertEqual(check("micro_router", 0, self.router(20, 41)), [])
        self.assert_fails(check("micro_router", 0, self.router(20, 40)),
                          "warm_affinity is 2.00x, want > 2.00")
        self.assertEqual(check("micro_router", 0, self.router(0, 5)), [])
        self.assert_fails(check("micro_router", 0, self.router(0, 0)),
                          "want > 2.00")

    def test_messages_differ(self):
        errs = [check("micro_predictor", 0, doc(fit(
                    "BM_GilSimulationThreads", "N^2"))),
                check("micro_predictor", 1, self.backend(1.9)),
                check("micro_cluster", 0, self.cluster("NlgN", 1.9)),
                check("micro_parallel", 0, self.nodes32("N^2", 16.0, 2.5)),
                check("micro_parallel", 0, self.nodes32("NlgN", 4.4, 1.9)),
                check("micro_parallel", 1, self.faults8(1.11)),
                check("micro_router", 0, self.router(20, 40))]
        flat = [e for err in errs for e in err]
        self.assertEqual(len(flat), len(errs))
        self.assertEqual(len(set(flat)), len(flat))


class FoldTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.legacy = load(os.path.join(HERE, "bench_deploy_legacy.json"))

    def raw(self, out, library=None):
        raw = {s.name: copy.deepcopy(out[s.name]) for s in bg.SUITES}
        for suite in raw.values():
            suite["context"]["library_build_type"] = (
                library or suite["context"]["library_build_type"])
        return raw

    def test_reproduces_the_legacy_fold(self):
        cpus = self.legacy["parallel_loop"]["cpus_online"]
        folded = bg.fold(self.raw(self.legacy, "release"), cpus)
        self.assertEqual(sorted(folded), sorted(DERIVED))
        for key in DERIVED:
            self.assertEqual(folded[key], self.legacy[key], key)

    def test_debug_library_leaves_timing_ratios_unmeasured(self):
        folded = bg.fold(self.raw(self.legacy, "debug"), 4)
        for path in TIMING_RATIOS:
            self.assertEqual(list(leaf(folded, path)), ["unmeasured"], path)
            leaf(folded, path[:-1])[path[-1]] = leaf(self.legacy, path)
        for key in DERIVED:
            self.assertEqual(folded[key], self.legacy[key], key)

    def test_few_cpus_leave_parallel_ratios_unmeasured(self):
        folded = bg.fold(self.raw(self.legacy, "release"), 2)
        for path in TIMING_RATIOS:
            value = leaf(folded, path)
            if path[0] == "parallel_loop":
                self.assertEqual(value, {"unmeasured": "only 2 of 4 CPUs"})
            else:
                self.assertEqual(value, leaf(self.legacy, path), path)

    def test_committed_bench_is_its_own_fold(self):
        committed = load(os.path.join(ROOT, "BENCH_deploy.json"))
        retired = {"micro_pgp", "micro_fault", "micro_sweep"}
        derived = DERIVED + ADDED
        self.assertEqual(sorted(committed),
                         sorted((set(self.legacy) - retired) | set(ADDED)))
        cpus = committed["parallel_loop"]["cpus_online"]
        folded = bg.fold(self.raw(committed), cpus)
        self.assertEqual(sorted(folded), sorted(derived))
        for key in derived:
            self.assertEqual(folded[key], committed[key], key)


if __name__ == "__main__":
    unittest.main()
