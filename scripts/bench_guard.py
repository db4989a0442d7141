#!/usr/bin/env python3
"""The micro suites (bench/micro_*.cc on bench/harness.h) as one table.

Each SUITES row names a suite, its smoke filter, the values a full run
folds into BENCH_deploy.json, and the guards tier-1 enforces on quick
runs of it. Nothing else in the repo lists the suites.

  scripts/bench_guard.py --smoke    # Release build + one tiny run per suite
  scripts/bench_guard.py --check    # the complexity and speedup guards
  scripts/bench_guard.py --record   # full runs, written to BENCH_deploy.json

Env overrides: BENCH_BUILD_DIR (default build-bench), JOBS (nproc).
"""
import json, math, operator, os, subprocess, sys
from dataclasses import dataclass, field

OPS = {">=": operator.ge, ">": operator.gt, "<=": operator.le}


def bigo(family):
    def fold(bench, library, cpus):
        b = bench.get(family + "_BigO")
        return b and {k: b.get(k) for k in
                      ("big_o", "cpu_coefficient", "real_coefficient")}
    return fold


def raw_time(name):
    return lambda bench, library, cpus: bench.get(name, {}).get("real_time")


@dataclass
class Ratio:
    """num / den over one field of two benchmarks. As a guard, `op limit`
    must hold on hosts with >= `cpus` CPUs. Recorded, a timing ratio needs
    bench binaries built with NDEBUG and `cpus` CPUs, or it reads
    unmeasured."""
    num: str
    den: str
    op: str = None
    limit: float = None
    cpus: int = 1
    metric: str = "real_time"

    def of(self, a, b):
        return a / b if b else (math.inf if a > 0 else math.nan)

    def value(self, bench):
        a = bench.get(self.num, {}).get(self.metric)
        b = bench.get(self.den, {}).get(self.metric)
        return None if a is None or b is None else self.of(a, b)

    def __call__(self, bench, library, cpus):
        v = self.value(bench)
        if v is None:
            return None
        if self.metric == "real_time" and library != "release":
            return {"unmeasured": "bench binaries built without NDEBUG"}
        if cpus < self.cpus:
            return {"unmeasured": "only %d of %d CPUs" % (cpus, self.cpus)}
        return v

    def check(self, bench, cpus):
        v = self.value(bench)
        if v is None:
            return "missing %s of %s or %s" % (self.metric, self.num, self.den)
        verdict = "%s / %s is %.2fx, want %s %.2f" % (
            self.num, self.den, v, self.op, self.limit)
        if cpus < self.cpus:
            verdict += " (not enforced: %d CPUs online)" % cpus
        print(verdict)
        if cpus >= self.cpus and not OPS[self.op](v, self.limit):
            return verdict


class OverheadPct(Ratio):
    """How much slower num runs than den, in percent."""
    def of(self, a, b):
        return 100.0 * (a - b) / b


@dataclass
class Fit:
    """A family's BigO fit must be present and not superlinear. With
    `growth`, a superlinear label fails only if that ratio breaks its bound
    too: the library's three-point label wavers when the largest size
    picks up cache pressure, while a genuine N^2 shows in the growth."""
    family: str
    growth: Ratio = None

    def check(self, bench, cpus):
        fit = bench.get(self.family + "_BigO", {}).get("big_o")
        if fit is None:
            return "no complexity fit emitted for " + self.family
        print("%s BigO fit: %s" % (self.family, fit))
        if self.growth and self.growth.value(bench) is None:
            return self.growth.check(bench, cpus)  # names what is missing
        held = self.growth and self.growth.check(bench, cpus) is None
        if fit in ("N^2", "N^3") and not held:
            return "%s regressed to %s (want <= N log N)" % (self.family, fit)


def check(checks, doc, cpus):
    """Failure messages of one guard run; empty when it passes."""
    bench = index(doc)
    return [err for err in [c.check(bench, cpus) for c in checks] if err]


@dataclass
class Suite:
    """`derived` nests like the JSON it writes; each leaf maps (entries by
    name, bench build type, CPUs online) to a value, None = omit."""
    name: str
    smoke: str  # --benchmark_filter of the smoke pass
    derived: dict = field(default_factory=dict)
    guards: list = field(default_factory=list)  # (quick run args, checks)


RUN = "BM_WrapPlanBackendRun/finra100"      # a request with its timelines
LATENCY = "BM_WrapPlanBackendLatency/finra100"  # the serving engines' entry
SEQ = "BM_ClusterRunSharded/%s/real_time"   # sim_threads = 1
PAR = "BM_ClusterRunParallel/%s/real_time"  # sim_threads = 4
F8 = "faults8/96000"

SUITES = [
    # The fast interleaving kernels vs their retired scan-per-step
    # references. A GIL fit of N^2 means the inner loop was re-linearised.
    Suite("micro_predictor", "BM_WorkflowPrediction/5$", derived={
        "kernel_bigo": {family: {
            "fast": bigo(family),
            "slow_reference": bigo(family + "SlowRef"),
            "speedup_at_512": Ratio(family + "SlowRef/512", family + "/512"),
        } for family in ("BM_GilSimulationThreads", "BM_CpuShareSimulation")},
        # One live FINRA-100 request through run() and through latency(),
        # which builds no timelines and records no spans.
        "wrap_plan_backend": {"run_ns": raw_time(RUN),
                              "latency_ns": raw_time(LATENCY),
                              "latency_speedup": Ratio(RUN, LATENCY)},
    }, guards=[
        (["--benchmark_filter=BM_GilSimulationThreads/",
          "--benchmark_min_time=0.01"], [Fit("BM_GilSimulationThreads")]),
        (["--benchmark_filter=BM_WrapPlanBackend", "--benchmark_min_time=0.05",
          "--benchmark_repetitions=3",
          "--benchmark_report_aggregates_only=true"],
         [Ratio(RUN, LATENCY, ">=", 2.0)]),
    ]),
    Suite("micro_obs", "BM_RecorderRecord$", derived={"recorder_overhead": {
        "cluster_recorder_on_ms": raw_time("BM_ClusterRecorderOn"),
        "cluster_recorder_off_ms": raw_time("BM_ClusterRecorderOff"),
        "overhead_pct":
            OverheadPct("BM_ClusterRecorderOn", "BM_ClusterRecorderOff"),
    }}),
    # The typed-event serving loop vs the retired closure loop on a
    # high-churn overload scenario. Full runs show several times 2x; 2x
    # keeps the quick min_time=0.01 pass from flaking on a loaded box.
    Suite("micro_cluster", "BM_ClusterRun/1024$", derived={"cluster_hotpath": {
        "fast": bigo("BM_ClusterRun"),
        "reference": bigo("BM_ClusterRunReference"),
        "speedup_at_65536":
            Ratio("BM_ClusterRunReference/65536", "BM_ClusterRun/65536"),
    }}, guards=[
        (["--benchmark_min_time=0.01"], [
            Fit("BM_ClusterRun"),
            Ratio("BM_ClusterRunReference/65536", "BM_ClusterRun/65536",
                  ">=", 2.0),
        ]),
    ]),
    # Cold starts and p95 per placement policy on a skewed 8-node burst.
    # Locality must pay for itself: warm_affinity needs under half of
    # random's cold starts (full runs show ~25x). The counters are
    # deterministic per seed, so min_time can stay tiny.
    Suite("micro_router", "BM_RouterPolicy/warm_affinity$", derived={
        "router_policies": lambda bench, library, cpus: {
            name.split("/", 1)[1]: {
                "cold_starts": b.get("cold_starts"), "p95_ms": b.get("p95_ms"),
                "completed": b.get("completed"), "run_ms": b.get("real_time")}
            for name, b in bench.items()
            if name.startswith("BM_RouterPolicy/")},
    }, guards=[
        (["--benchmark_min_time=0.01"], [
            Ratio("BM_RouterPolicy/random", "BM_RouterPolicy/warm_affinity",
                  ">", 2.0, metric="cold_starts"),
        ]),
    ]),
    # The windowed engine at 1 vs 4 sim threads. On the healthy 32-node
    # fleet 4 threads must buy >= 2x at 1M requests and the fit must stay
    # at N log N or better (~4.4x per 4x N here; N^2 shows ~16x, and 9x
    # splits them). On the barrier-heavy faults8 shape narrow windows run
    # inline, so 4 threads may cost at most 10 % more than 1 (medians of
    # 5 repetitions). The timing bounds bind only on >= 4 CPUs.
    Suite("micro_parallel", "BM_ClusterRunParallel/(nodes8/65536|faults8)",
          derived={"parallel_loop": {
        "cpus_online": lambda bench, library, cpus: cpus,
        **{fleet: {
            "sequential": bigo(SEQ % fleet),
            "parallel": bigo(PAR % fleet),
            "speedup_at_1048576": Ratio(SEQ % (fleet + "/1048576"),
                                        PAR % (fleet + "/1048576"), cpus=4),
        } for fleet in ("nodes8", "nodes32")},
        "faults8": {"sequential_ms": raw_time(SEQ % F8),
                    "parallel_ms": raw_time(PAR % F8),
                    "speedup": Ratio(SEQ % F8, PAR % F8, cpus=4)},
    }}, guards=[
        (["--benchmark_filter=nodes32", "--benchmark_min_time=0.01"], [
            Fit(PAR % "nodes32", growth=Ratio(
                PAR % "nodes32/1048576", PAR % "nodes32/262144", "<=", 9.0)),
            Ratio(SEQ % "nodes32/1048576", PAR % "nodes32/1048576",
                  ">=", 2.0, cpus=4),
        ]),
        (["--benchmark_filter=faults8", "--benchmark_min_time=0.1",
          "--benchmark_repetitions=5",
          "--benchmark_report_aggregates_only=true"],
         [Ratio(PAR % F8, SEQ % F8, "<=", 1.10, cpus=4)]),
    ]),
]


def index(doc):
    """A run's entries by name; under repetitions, the medians by run."""
    out = {}
    for b in doc.get("benchmarks", []):
        agg = b.get("aggregate_name")
        if agg in (None, "BigO", "median"):
            out[b["run_name"] if agg == "median" else b["name"]] = b
    return out


def fold(raw, cpus):
    """The derived BENCH_deploy.json values of full suite runs."""
    def evaluate(rule, *env):
        if not isinstance(rule, dict):
            return rule(*env)
        values = {k: evaluate(v, *env) for k, v in rule.items()}
        return {k: v for k, v in values.items() if v not in (None, {})}
    out = {}
    for s in SUITES:
        library = raw[s.name].get("context", {}).get("library_build_type")
        out.update(evaluate(s.derived, index(raw[s.name]), library, cpus))
    return out


def build_suites():
    build = os.environ.get("BENCH_BUILD_DIR", "build-bench")
    jobs = os.environ.get("JOBS") or str(len(os.sched_getaffinity(0)))
    print("== bench: configure + build Release (%s) ==" % build, flush=True)
    subprocess.run(["cmake", "-B", build, "-S", ".",
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=subprocess.DEVNULL)
    subprocess.run(["cmake", "--build", build, "-j", jobs, "--target",
                    *("bench_" + s.name for s in SUITES)], check=True)
    return build


def run(build, suite, args):
    out = os.path.join(build, suite + ".json")
    subprocess.run([os.path.join(build, "bench", "bench_" + suite), *args,
                    "--benchmark_out=" + out],
                   check=True, stdout=subprocess.DEVNULL)
    with open(out) as f:
        return json.load(f)


def record(build):
    # Timings on a busy box are noise: above a 1-min load of 1.0 every suite
    # runs twice and the second pass, after the load had time to drain, wins.
    with open("/proc/loadavg") as f:
        load = float(f.read().split()[0])
    passes = 2 if load > 1.0 else 1
    if passes == 2:
        print("WARNING: 1-min load average %.2f > 1.0 at bench start; "
              "each suite runs twice and the second pass is kept" % load)
    raw = {}
    for s in SUITES:
        for _ in range(passes):
            print("== bench: %s ==" % s.name, flush=True)
            raw[s.name] = run(build, s.name, [])
    library = raw["micro_predictor"]["context"].get("library_build_type")
    if library != "release":
        print("WARNING: bench binaries built without NDEBUG (%r): timing "
              "ratios are written as unmeasured" % library)
    derived = fold(raw, os.cpu_count() or 1)
    print(json.dumps(derived, indent=1))
    with open("BENCH_deploy.json", "w") as f:
        json.dump({"bench": "deploy", "build_type": "Release",
                   "load_avg": {"start_1min": load,
                                "high_load_rerun": passes == 2},
                   **raw, "benchmark_library_build_type": library,
                   **derived}, f, indent=1)
        f.write("\n")


def main():
    mode = sys.argv[1] if len(sys.argv) == 2 else None
    if mode not in ("--smoke", "--check", "--record"):
        sys.exit("usage: %s --smoke | --check | --record" % sys.argv[0])
    os.chdir(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
    build = build_suites()
    if mode == "--record":
        return record(build)
    failures = []
    for s in SUITES:
        if mode == "--smoke":
            run(build, s.name, ["--benchmark_filter=" + s.smoke,
                                "--benchmark_min_time=0.01"])
            continue
        for args, checks in s.guards:
            print("== guard: %s %s ==" % (s.name, " ".join(args)), flush=True)
            failures += ["%s: %s" % (s.name, err) for err in check(
                checks, run(build, s.name, args), os.cpu_count() or 1)]
    sys.exit("\n".join(failures) or None)


if __name__ == "__main__":
    main()
