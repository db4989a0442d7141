// Fig. 12 — prediction error of the Chiron Predictor vs RFR / LSTM / GNN
// across SN, MR, FINRA-5, SLApp, SLApp-V under native-thread, Intel MPK
// and process-pool execution. Learned models are trained leave-one-out:
// on the configurations of the other four workflows.
//
// Exits 1 unless the paper's claim holds: Chiron-Predictor's mean error
// is below RFR's, LSTM's and GNN's on every (workflow, mode) row, and its
// overall mean is at most the paper's 14.2 % per-workflow maximum.
#include <iostream>
#include <utility>

#include "bench_util.h"
#include "common/table.h"
#include "metrics/stats.h"
#include "ml/predictor_eval.h"
#include "workflow/benchmarks.h"

using namespace chiron;

int main() {
  bench::banner("Figure 12",
                "prediction error of Chiron-Predictor vs RFR / LSTM / GNN");

  const std::vector<Workflow> workflows{
      make_social_network(), make_movie_reviewing(), make_finra(5),
      make_slapp(), make_slapp_v()};

  ml::EvalOptions opts;
  opts.actual_runs = 3;
  opts.max_configs = 14;

  RunningStats chiron_overall;
  bool claim_holds = true;
  for (IsolationMode mode :
       {IsolationMode::kNative, IsolationMode::kMpk, IsolationMode::kPool}) {
    opts.mode = mode;
    std::cout << "\n--- execution mode: " << to_string(mode) << " ---\n";
    Table table({"workflow", "Chiron-Predictor", "worst", "RFR", "LSTM",
                 "GNN"});
    for (std::size_t target = 0; target < workflows.size(); ++target) {
      std::vector<Workflow> train;
      for (std::size_t i = 0; i < workflows.size(); ++i) {
        if (i != target) train.push_back(workflows[i]);
      }
      const ml::PredictionErrors errors =
          ml::evaluate_predictors(train, workflows[target], opts);
      double worst = 0.0;
      for (double e : errors.chiron) {
        chiron_overall.add(e);
        worst = std::max(worst, e);
      }
      const double chiron = mean_of(errors.chiron);
      const std::pair<const char*, double> rivals[] = {
          {"RFR", mean_of(errors.rfr)},
          {"LSTM", mean_of(errors.lstm)},
          {"GNN", mean_of(errors.gnn)}};
      for (const auto& [model, error] : rivals) {
        if (!(chiron < error)) {
          std::cerr << "claim fails: " << workflows[target].name() << " "
                    << to_string(mode) << ": Chiron-Predictor "
                    << format_fixed(chiron, 1) << " % is not below " << model
                    << " " << format_fixed(error, 1) << " %\n";
          claim_holds = false;
        }
      }
      table.row()
          .add(workflows[target].name())
          .add(format_fixed(mean_of(errors.chiron), 1) + " %")
          .add(format_fixed(worst, 1) + " %")
          .add(format_fixed(mean_of(errors.rfr), 1) + " %")
          .add(format_fixed(mean_of(errors.lstm), 1) + " %")
          .add(format_fixed(mean_of(errors.gnn), 1) + " %");
    }
    table.print(std::cout);
    bench::maybe_csv(table, "fig12_prediction_" + to_string(mode));
  }
  std::cout << "\nChiron-Predictor overall mean error: "
            << format_fixed(chiron_overall.mean(), 1)
            << " % (paper: 6.7 % average, per-workflow 1.4-14.2 %;\nlearned"
               " models degrade badly out of their training distribution).\n";
  if (!(chiron_overall.mean() <= 14.2)) {
    std::cerr << "claim fails: overall mean error "
              << format_fixed(chiron_overall.mean(), 1)
              << " % exceeds the paper's 14.2 % per-workflow maximum\n";
    claim_holds = false;
  }
  return claim_holds ? 0 : 1;
}
