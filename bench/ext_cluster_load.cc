// Extension — closed-loop cluster behaviour under offered load: achieved
// throughput, tail latency, cold starts, and instance footprint for the
// one-to-one model vs Faastlane vs Chiron, across a load sweep and a cold
// -start-sensitive bursty scenario. Quantifies §1's cascading-cold-start
// story and complements the analytic throughput of Fig. 16.
#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "platform/cluster.h"
#include "workflow/benchmarks.h"

using namespace chiron;

namespace {

void load_sweep(const Workflow& wf, const SystemOptions& opts) {
  std::cout << "\n--- " << wf.name()
            << ": offered-load sweep (8 nodes, Poisson arrivals) ---\n";
  Table table({"system", "offered", "achieved", "p50", "p99", "cold starts",
               "peak inst"});
  for (const std::string system : {"OpenFaaS", "Faastlane", "Chiron"}) {
    const auto backend = make_system(system, wf, opts);
    const std::size_t cascade =
        system == "OpenFaaS" ? wf.stage_count() : 1;
    for (double rps : {50.0, 200.0, 800.0}) {
      ClusterConfig config;
      config.nodes = 8;
      config.offered_rps = rps;
      config.horizon_ms = 20000.0;
      ClusterSimulator sim(config, opts.params);
      const ClusterResult r = sim.run(*backend, cascade);
      table.row()
          .add(system)
          .add(format_fixed(rps, 0) + " rps")
          .add(format_fixed(r.achieved_rps, 0) + " rps")
          .add_unit(r.p50_ms, "ms")
          .add_unit(r.p99_ms, "ms")
          .add_int(static_cast<long long>(r.cold_starts))
          .add_int(static_cast<long long>(r.peak_instances));
    }
  }
  table.print(std::cout);
}

void burst_scenario(const Workflow& wf, const SystemOptions& opts) {
  std::cout << "\n--- " << wf.name()
            << ": bursty arrivals, short keep-alive (cold-start stress) ---\n";
  Table table({"system", "achieved", "mean", "p99", "cold starts"});
  for (const std::string system : {"OpenFaaS", "Faastlane", "Chiron"}) {
    const auto backend = make_system(system, wf, opts);
    const std::size_t cascade =
        system == "OpenFaaS" ? wf.stage_count() : 1;
    ClusterConfig config;
    config.nodes = 8;
    config.offered_rps = 100.0;
    config.horizon_ms = 20000.0;
    config.keep_alive_ms = 800.0;  // aggressive reclaim
    config.arrivals = ArrivalKind::kBurst;
    ClusterSimulator sim(config, opts.params);
    const ClusterResult r = sim.run(*backend, cascade);
    table.row()
        .add(system)
        .add(format_fixed(r.achieved_rps, 0) + " rps")
        .add_unit(r.mean_ms, "ms")
        .add_unit(r.p99_ms, "ms")
        .add_int(static_cast<long long>(r.cold_starts));
  }
  table.print(std::cout);
}

}  // namespace

int main() {
  bench::banner("Extension",
                "closed-loop cluster load: throughput, tails, cold starts");
  const SystemOptions opts = bench::default_options();
  load_sweep(make_finra(25), opts);
  load_sweep(make_social_network(), opts);
  burst_scenario(make_social_network(), opts);
  std::cout << "\nexpected shape: Chiron sustains the highest load per node "
               "(fewest CPUs per\ninstance) and pays one cold start per "
               "scale-out, while the one-to-one model\ncascades cold starts "
               "across stages and saturates early.\n";
  return 0;
}
