// §3.3 / §7 micro-benchmarks (google-benchmark): the Predictor "maintains
// sub-millisecond overhead even in scenarios with hundreds of threads";
// the GIL engine and the full workflow estimate are measured here.
#include <benchmark/benchmark.h>

#include "core/predictor.h"
#include "runtime/gil.h"
#include "runtime/resources.h"
#include "workflow/benchmarks.h"

namespace {

using namespace chiron;

std::vector<FunctionBehavior> true_behaviors(const Workflow& wf) {
  std::vector<FunctionBehavior> out;
  for (const FunctionSpec& f : wf.functions()) out.push_back(f.behavior);
  return out;
}

std::vector<ThreadTask> gil_bench_tasks(std::size_t n) {
  std::vector<FunctionBehavior> behaviors;
  for (std::size_t i = 0; i < n; ++i) {
    behaviors.push_back(i % 2 == 0 ? cpu_bound(3.0)
                                   : disk_io_bound(2.0, 6.0, 2));
  }
  return staggered_tasks(behaviors, 0.3);
}

void BM_GilSimulationThreads(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto tasks = gil_bench_tasks(n);
  GilSimulator sim(5.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(tasks).makespan);
  }
  state.SetComplexityN(static_cast<long>(n));
}
// Range runs past 512: per-event cost climbs ~2.5x across the 256..1024
// cache-footprint transition, and a fit that ends inside the bump can
// misread the curvature as N^2. By 4096 the cost per event is flat and
// the fit sees the true N log N asymptote.
BENCHMARK(BM_GilSimulationThreads)->RangeMultiplier(2)->Range(8, 4096)
    ->Complexity();

// The retired scan-per-step kernel, kept callable as the parity
// reference: benchmarking it alongside the fast kernel is the speedup
// evidence for the O(E log N) rewrite (scripts/bench_guard.py folds both
// BigO fits into BENCH_deploy.json and guards the fast one).
void BM_GilSimulationThreadsSlowRef(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto tasks = gil_bench_tasks(n);
  GilSimulator sim(5.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run_slow_reference(tasks).makespan);
  }
  state.SetComplexityN(static_cast<long>(n));
}
// The quadratic reference stays at 512: past that each iteration costs
// tens of milliseconds and the N^2 fit is already unambiguous.
BENCHMARK(BM_GilSimulationThreadsSlowRef)->RangeMultiplier(2)->Range(8, 512)
    ->Complexity();

void BM_CpuShareSimulation(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<FunctionBehavior> behaviors(n, cpu_bound(3.0));
  const auto tasks = staggered_tasks(behaviors, 0.25);
  CpuShareSimulator sim(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(tasks).makespan);
  }
  state.SetComplexityN(static_cast<long>(n));
}
BENCHMARK(BM_CpuShareSimulation)->RangeMultiplier(2)->Range(8, 4096)
    ->Complexity();

void BM_CpuShareSimulationSlowRef(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<FunctionBehavior> behaviors(n, cpu_bound(3.0));
  const auto tasks = staggered_tasks(behaviors, 0.25);
  CpuShareSimulator sim(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run_slow_reference(tasks).makespan);
  }
  state.SetComplexityN(static_cast<long>(n));
}
BENCHMARK(BM_CpuShareSimulationSlowRef)->RangeMultiplier(2)->Range(8, 512)
    ->Complexity();

void BM_WorkflowPrediction(benchmark::State& state) {
  const Workflow wf = make_finra(static_cast<std::size_t>(state.range(0)));
  // Cache off: this measures the cold simulation cost of one estimate.
  Predictor predictor(
      PredictorConfig{RuntimeParams::defaults(), Runtime::kPython3, 1.0,
                      /*enable_cache=*/false},
      true_behaviors(wf));
  const WrapPlan plan = faastlane_plan(wf);
  for (auto _ : state) {
    benchmark::DoNotOptimize(predictor.workflow_latency(plan));
  }
}
BENCHMARK(BM_WorkflowPrediction)->Arg(5)->Arg(50)->Arg(100)->Arg(200);

void BM_CachedWorkflowPrediction(benchmark::State& state) {
  const Workflow wf = make_finra(static_cast<std::size_t>(state.range(0)));
  Predictor predictor(
      PredictorConfig{RuntimeParams::defaults(), Runtime::kPython3, 1.0},
      true_behaviors(wf));
  const WrapPlan plan = faastlane_plan(wf);
  predictor.workflow_latency(plan);  // warm the memo table
  for (auto _ : state) {
    benchmark::DoNotOptimize(predictor.workflow_latency(plan));
  }
}
BENCHMARK(BM_CachedWorkflowPrediction)->Arg(50)->Arg(200);

void BM_CappedWorkflowPrediction(benchmark::State& state) {
  const Workflow wf = make_finra(static_cast<std::size_t>(state.range(0)));
  Predictor predictor(
      PredictorConfig{RuntimeParams::defaults(), Runtime::kPython3, 1.0,
                      /*enable_cache=*/false},
      true_behaviors(wf));
  WrapPlan plan = sand_plan(wf);
  plan.cpu_cap = 4;  // forces the two-level effective-behaviour simulation
  for (auto _ : state) {
    benchmark::DoNotOptimize(predictor.workflow_latency(plan));
  }
}
BENCHMARK(BM_CappedWorkflowPrediction)->Arg(50)->Arg(200);

}  // namespace

BENCHMARK_MAIN();
