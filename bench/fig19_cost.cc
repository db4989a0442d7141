// Fig. 19 — dollar cost per one million workflow requests, normalized to
// Chiron (heat-table layout as in the paper; Chiron's row shows absolute
// dollars).
//
// Exits 1 unless the paper's ordering holds in every column: ASF is the
// most expensive row, and each Faastlane variant costs more than its
// Chiron twin (Faastlane/Chiron, -M/-M, -P/-P).
#include <iostream>
#include <map>

#include "bench_util.h"
#include "common/table.h"
#include "workflow/benchmarks.h"

using namespace chiron;

int main() {
  bench::banner("Figure 19", "cost (USD) per 1M requests, normalized to Chiron");
  const SystemOptions opts = bench::default_options();
  const std::vector<std::string> systems{
      "OpenFaaS",    "SAND",     "Faastlane",   "Chiron",
      "Faastlane-M", "Chiron-M", "Faastlane-P", "Chiron-P"};
  const auto suite = evaluation_suite();

  std::vector<std::string> headers{"system"};
  for (const Workflow& wf : suite) headers.push_back(wf.name());
  // ASF separately: it is billed per state transition as well.
  Table table(headers);

  // Absolute cost per system and workflow, for the ordering check.
  std::map<std::string, std::vector<double>> cost;
  std::vector<double>& chiron_cost = cost["Chiron"];
  chiron_cost.resize(suite.size());
  for (std::size_t w = 0; w < suite.size(); ++w) {
    const auto backend = make_system("Chiron", suite[w], opts);
    Rng rng(opts.seed + w);
    chiron_cost[w] =
        evaluate_system(*backend, opts.params, rng, 10).cost_per_million_usd;
  }

  // ASF row first, as in the paper's heat table.
  table.row().add("ASF");
  for (std::size_t w = 0; w < suite.size(); ++w) {
    const auto backend = make_system("ASF", suite[w], opts);
    Rng rng(opts.seed + w);
    cost["ASF"].push_back(
        evaluate_system(*backend, opts.params, rng, 5).cost_per_million_usd);
    table.add(cost["ASF"][w] / chiron_cost[w], 1);
  }
  for (const std::string& system : systems) {
    table.row().add(system);
    for (std::size_t w = 0; w < suite.size(); ++w) {
      if (system == "Chiron") {
        table.add("$" + format_fixed(chiron_cost[w], 2));
        continue;
      }
      const auto backend = make_system(system, suite[w], opts);
      Rng rng(opts.seed + w);
      cost[system].push_back(evaluate_system(*backend, opts.params, rng, 10)
                                 .cost_per_million_usd);
      table.add(cost[system][w] / chiron_cost[w], 1);
    }
  }
  table.print(std::cout);
  bench::maybe_csv(table, "fig19_cost");
  std::cout << "\npaper shape: ASF up to ~272x Chiron (per-transition"
               " billing); Chiron saves\n44-95 % vs Faastlane and 23.1-99.6 %"
               " overall.\n";

  bool claim_holds = true;
  for (std::size_t w = 0; w < suite.size(); ++w) {
    const std::string& column = suite[w].name();
    for (const auto& [system, c] : cost) {
      if (system == "ASF" || c[w] < cost["ASF"][w]) continue;
      std::cerr << "claim fails: " << column << ": " << system << " costs "
                << format_fixed(c[w], 2) << " USD, ASF only "
                << format_fixed(cost["ASF"][w], 2) << "\n";
      claim_holds = false;
    }
    for (const std::string twin : {"", "-M", "-P"}) {
      const double faastlane = cost["Faastlane" + twin][w];
      const double chiron = cost["Chiron" + twin][w];
      if (faastlane > chiron) continue;
      std::cerr << "claim fails: " << column << ": Faastlane" << twin
                << " costs " << format_fixed(faastlane, 2) << " USD, Chiron"
                << twin << " " << format_fixed(chiron, 2) << "\n";
      claim_holds = false;
    }
  }
  return claim_holds ? 0 : 1;
}
