// Fig. 7 — latency distribution of four parallel SLApp-class functions
// under true parallelism (process pool / Java threads) as the CPU
// allocation shrinks from 4 to 1: combined true+pseudo parallelism with
// 3 CPUs costs only ~12 % extra latency vs uniform 4-CPU allocation.
#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "metrics/stats.h"
#include "runtime/gil.h"
#include "runtime/resources.h"
#include "workflow/benchmarks.h"

using namespace chiron;

namespace {

// The four SLApp archetypes (factorial, fibonacci, disk-io, network-io).
std::vector<FunctionBehavior> slapp_four() {
  const Workflow wf = make_slapp();
  std::vector<FunctionBehavior> out;
  for (FunctionId f : wf.stage(0).functions) {
    out.push_back(wf.function(f).behavior);
  }
  return out;
}

}  // namespace

int main() {
  bench::banner("Figure 7", "latency without GIL vs number of CPUs");
  const RuntimeParams& params = RuntimeParams::defaults();
  const auto behaviors = slapp_four();

  for (const char* engine : {"Python ProcessPoolExecutor", "Java threads"}) {
    const Runtime runtime = std::string(engine) == "Java threads"
                                ? Runtime::kJava
                                : Runtime::kPython3;
    const TimeMs gap = params.spawn_gap_ms(runtime, IsolationMode::kPool);
    std::cout << "\n--- " << engine << " ---\n";
    Table table({"CPUs", "mean", "p50", "p95", "max", "vs 4 CPUs"});
    double base_mean = 0.0;
    for (std::size_t cpus = 4; cpus >= 1; --cpus) {
      Rng rng(0xF16 + cpus);
      std::vector<double> latencies;
      for (int run = 0; run < 50; ++run) {
        // Per-run jitter on the behaviours.
        std::vector<ThreadTask> tasks;
        for (std::size_t i = 0; i < behaviors.size(); ++i) {
          std::vector<Segment> segs = behaviors[i].segments();
          for (Segment& s : segs) s.duration *= rng.jitter(0.04);
          tasks.push_back(
              {FunctionBehavior(std::move(segs)), static_cast<TimeMs>(i) * gap});
        }
        CpuShareSimulator sim(cpus);
        const auto result = sim.run(tasks);
        for (const TaskResult& t : result.tasks) {
          latencies.push_back(t.latency());
        }
      }
      const double mean = mean_of(latencies);
      if (cpus == 4) base_mean = mean;
      table.row()
          .add_int(static_cast<long long>(cpus))
          .add_unit(mean, "ms")
          .add_unit(percentile(latencies, 50.0), "ms")
          .add_unit(percentile(latencies, 95.0), "ms")
          .add_unit(percentile(latencies, 100.0), "ms")
          .add("+" + format_fixed((mean / base_mean - 1.0) * 100.0, 1) + " %");
    }
    table.print(std::cout);
  }
  std::cout << "\npaper anchor: 3 CPUs cost only ~11.7 % (~4.2 ms) over the"
               " uniform 4-CPU allocation.\n";
  return 0;
}
