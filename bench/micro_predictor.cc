// §3.3 / §7 micro-benchmarks (bench/harness.h): the Predictor "maintains
// sub-millisecond overhead even in scenarios with hundreds of threads";
// the GIL and CPU-share kernels and the full workflow estimate are
// measured here, and so is PGP scheduling cost as workflows grow to
// hundreds of functions (the paper reports minute-level offline cost at
// that scale; KL is the dominant factor and is skipped above
// kl_function_limit, as §7's discussion suggests). The ground-truth
// backend that serves a live plan is timed per request, through run()
// and through the latency-only entry the serving engines call.
#include <memory>
#include <string>

#include "core/chiron.h"
#include "core/pgp.h"
#include "core/predictor.h"
#include "harness.h"
#include "platform/plan_backend.h"
#include "platform/systems.h"
#include "runtime/gil.h"
#include "runtime/resources.h"
#include "workflow/benchmarks.h"

namespace {

using namespace chiron;
using namespace chiron::bench;

std::vector<FunctionBehavior> true_behaviors(const Workflow& wf) {
  std::vector<FunctionBehavior> out;
  for (const FunctionSpec& f : wf.functions()) out.push_back(f.behavior);
  return out;
}

std::vector<ThreadTask> gil_bench_tasks(std::int64_t n) {
  std::vector<FunctionBehavior> behaviors;
  for (std::int64_t i = 0; i < n; ++i) {
    behaviors.push_back(i % 2 == 0 ? cpu_bound(3.0)
                                   : disk_io_bound(2.0, 6.0, 2));
  }
  return staggered_tasks(behaviors, 0.3);
}

std::vector<ThreadTask> cpu_share_tasks(std::int64_t n) {
  return staggered_tasks(std::vector<FunctionBehavior>(n, cpu_bound(3.0)),
                         0.25);
}

/// One PGP schedule of FINRA-n with KL forced on or off at every size.
Timed pgp_schedule(std::int64_t n, bool use_kl) {
  const Workflow wf = make_finra(n);
  PgpConfig config;
  config.use_kl = use_kl;
  config.kl_function_limit = 1024;  // never auto-skip inside the KL family
  auto scheduler =
      std::make_shared<PgpScheduler>(config, wf, true_behaviors(wf));
  const TimeMs slo = 80.0 + 1.5 * static_cast<TimeMs>(n);
  return {[scheduler, slo] {
    do_not_optimize(scheduler->schedule(slo).processes);
  }};
}

/// One request of a live backend of the kind bench_e2e's fleet_finra100
/// serves (Chiron's plan for FINRA-100 at its default SLO), through
/// run(), which builds every function's timeline, or through latency().
Timed wrap_plan_backend(bool timelines) {
  const Workflow wf = make_finra(100);
  Chiron chiron{ChironConfig{}};
  auto backend = std::make_shared<WrapPlanBackend>(
      "chiron", RuntimeParams::defaults(), wf,
      chiron.deploy(wf, default_slo(wf, SystemOptions{})).plan);
  return {[backend, timelines, rng = Rng(1)]() mutable {
    do_not_optimize(timelines ? backend->run(rng).e2e_latency_ms
                              : backend->latency(rng));
  }};
}

/// A kernel family and its retired scan-per-step reference (<name>SlowRef),
/// each timed on `tasks(n)`. The references stay callable as the parity
/// oracle; timing them beside the fast kernels is the speedup evidence
/// for the O(E log N) rewrite (scripts/bench_guard.py folds both fits
/// into BENCH_deploy.json and guards the fast GIL one).
template <class Sim>
void register_kernel(const std::string& name,
                     std::vector<ThreadTask> (*tasks)(std::int64_t), Sim sim) {
  // The fast kernels run past 512: per-event cost climbs ~2.5x across the
  // 256..1024 cache-footprint transition, and a fit that ends inside the
  // bump can misread the curvature as N^2. By 4096 the cost per event is
  // flat and the fit sees the true N log N asymptote. The references stop
  // at 512: past that each call costs tens of milliseconds and the N^2
  // fit is already unambiguous.
  for (const bool slow : {false, true}) {
    std::vector<std::int64_t> sizes = {8, 16, 32, 64, 128, 256, 512};
    if (!slow) sizes.insert(sizes.end(), {1024, 2048, 4096});
    RegisterBenchmark(name + (slow ? "SlowRef" : ""), [=](std::int64_t n) {
      return Timed{[slow, sim, tasks = tasks(n)] {
        do_not_optimize(
            (slow ? sim.run_slow_reference(tasks) : sim.run(tasks)).makespan);
      }};
    }, {sizes});
  }
}

[[maybe_unused]] const bool registered = [] {
  register_kernel("BM_GilSimulationThreads", gil_bench_tasks,
                  GilSimulator(5.0));
  register_kernel("BM_CpuShareSimulation", cpu_share_tasks,
                  CpuShareSimulator(4));

  // Cache off: the cold simulation cost of one whole-workflow estimate.
  RegisterBenchmark("BM_WorkflowPrediction", [](std::int64_t n) {
    const Workflow wf = make_finra(n);
    auto predictor = std::make_shared<Predictor>(
        PredictorConfig{RuntimeParams::defaults(), Runtime::kPython3, 1.0,
                        /*enable_cache=*/false},
        true_behaviors(wf));
    return Timed{[predictor, plan = faastlane_plan(wf)] {
      do_not_optimize(predictor->workflow_latency(plan));
    }};
  }, {{5, 50, 100, 200}});

  // With the default config KL silently turns off above
  // kl_function_limit (64), so one size axis would mix two regimes. Each
  // family stays in one regime end to end; compare them at the shared
  // sizes to read the cost of KL itself. The KL family stops at 100
  // functions: KL on larger FINRA workflows is the paper's "minute-level
  // offline cost" territory. No-KL is the greedy path large workflows
  // take in production.
  RegisterBenchmark("BM_PgpScheduleKl",
                    [](std::int64_t n) { return pgp_schedule(n, true); },
                    {{5, 25, 50, 100}, /*ms=*/true});
  RegisterBenchmark("BM_PgpScheduleNoKl",
                    [](std::int64_t n) { return pgp_schedule(n, false); },
                    {{5, 25, 50, 100, 200}, /*ms=*/true});

  RegisterBenchmark("BM_WrapPlanBackendRun/finra100",
                    [](std::int64_t) { return wrap_plan_backend(true); });
  RegisterBenchmark("BM_WrapPlanBackendLatency/finra100",
                    [](std::int64_t) { return wrap_plan_backend(false); });
  return true;
}();

}  // namespace
