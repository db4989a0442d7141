// Workflow model: functions grouped into a sequence of stages, exactly the
// structure the paper's Predictor assumes (§3.3: "Serverless workflows
// comprise a sequence of execution stages, wherein each stage includes one
// or more parallel functions").
#pragma once

#include <string>
#include <vector>

#include "common/types.h"
#include "workflow/behavior.h"

namespace chiron {

/// A deployable function: behaviour trace plus the deployment-relevant
/// metadata the Scheduler needs (runtime conflicts, file conflicts,
/// memory footprint, payload sizes).
struct FunctionSpec {
  std::string name;
  FunctionBehavior behavior;
  Runtime runtime = Runtime::kPython3;

  /// Extra per-function working-set memory beyond the shared runtime (MiB).
  MemMb memory_mb = 8.0;

  /// Payload this function emits to its successors.
  Bytes output_bytes = 1_KB;

  /// Files the function opens for writing; two functions touching the same
  /// file must not share a sandbox (§3.4).
  std::vector<std::string> files_written{};

  /// Runtime flavour tag (e.g. "py3.11" vs "py2.7"); differing tags are a
  /// sandbox-sharing conflict (§3.4).
  std::string runtime_tag = "py3.11";
};

/// One execution stage: the ids of its parallel functions.
struct Stage {
  std::vector<FunctionId> functions;

  std::size_t parallelism() const { return functions.size(); }
};

/// A stage-structured serverless workflow (DAG linearised into stages).
class Workflow {
 public:
  Workflow() = default;
  Workflow(std::string name, std::vector<FunctionSpec> functions,
           std::vector<Stage> stages);

  const std::string& name() const { return name_; }
  const std::vector<FunctionSpec>& functions() const { return functions_; }
  const std::vector<Stage>& stages() const { return stages_; }

  const FunctionSpec& function(FunctionId id) const { return functions_.at(id); }
  const Stage& stage(StageId id) const { return stages_.at(id); }

  std::size_t function_count() const { return functions_.size(); }
  std::size_t stage_count() const { return stages_.size(); }

  /// Maximum per-stage parallelism (the paper's M in Algorithm 2).
  std::size_t max_parallelism() const;

  /// Stage that contains `id`; throws if the id is not in any stage.
  StageId stage_of(FunctionId id) const;

  /// Sum of every function's solo latency; a loose lower bound on the
  /// fully-sequential execution time.
  TimeMs total_solo_latency() const;

  /// Critical path if every stage ran its slowest function with zero
  /// overhead: sum over stages of max solo latency. The ideal e2e latency.
  TimeMs ideal_latency() const;

  /// Validates structural invariants: every function in exactly one stage,
  /// no empty stages, ids in range. Throws std::invalid_argument otherwise.
  void validate() const;

 private:
  std::string name_;
  std::vector<FunctionSpec> functions_;
  std::vector<Stage> stages_;
};

}  // namespace chiron
