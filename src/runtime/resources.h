// Resource accounting: memory footprint, CPU allocation, dollar cost, the
// single-worker-node throughput model used by Fig. 8/16/17/19 — and the
// CPU-share interleaving kernel (CpuShareSimulator) that models how tasks
// progress on a bounded CPU allocation.
#pragma once

#include <cstddef>

#include "common/types.h"
#include "runtime/gil.h"
#include "runtime/params.h"

namespace chiron {

/// Resources a deployment holds while serving one in-flight request.
struct ResourceUsage {
  MemMb memory_mb = 0.0;
  double cpus = 0.0;
  std::size_t sandboxes = 0;
  std::size_t processes = 0;
  std::size_t threads = 0;

  ResourceUsage& operator+=(const ResourceUsage& other);
};

/// Memory of one sandbox hosting `processes` forked processes (>= 1 when
/// anything runs), `threads` extra threads, `pool_workers` resident pool
/// workers, and functions whose private working sets sum to `function_mb`.
/// The language runtime is loaded once per sandbox — sharing it is where
/// the many-to-one model's 85.5 % memory saving comes from (Obs. 4).
MemMb sandbox_memory_mb(const RuntimeParams& params, std::size_t processes,
                        std::size_t threads, std::size_t pool_workers,
                        MemMb function_mb);

/// Dollar cost of serving one request: GB-seconds + GHz-seconds + (for
/// ASF-style platforms) per-state-transition charges (Fig. 19 method).
double cost_per_request_usd(const RuntimeParams& params,
                            const ResourceUsage& usage, TimeMs latency_ms,
                            std::size_t state_transitions);

/// Maximum sustainable requests/second on one worker node: pack as many
/// deployment instances as node resources allow, each completing one
/// request per `latency_ms` (Fig. 16 normalisation).
double node_throughput_rps(const RuntimeParams& params,
                           const ResourceUsage& usage, TimeMs latency_ms);

/// True-parallel execution of tasks on `cpus` cores with fluid processor
/// sharing when runnable tasks exceed cores — the behaviour of Java
/// threads and of a process pool pinned to k cores (paper §4, Fig. 7).
///
/// Progress is tracked on a shared work coordinate W (ms of per-task
/// progress): while R tasks are runnable each advances at rate
/// min(1, cpus/R), a CPU segment entered at W0 completes at exactly
/// W0 + duration, and segment boundaries / arrivals / unblocks are the
/// only breakpoints the kernel visits. run() and makespan() find each
/// breakpoint through heaps (O(E log N)); run_slow_reference() re-scans
/// all tasks per breakpoint (O(E*N)) with the same arithmetic, making the
/// three bit-identical by construction.
class CpuShareSimulator {
 public:
  explicit CpuShareSimulator(std::size_t cpus, bool record_spans = false);

  /// Simulates all tasks to completion. Deterministic, O(E log N).
  InterleaveResult run(const std::vector<ThreadTask>& tasks) const;

  /// run()'s makespan, bit for bit, on borrowed and overhead-scaled tasks
  /// (see GilSimulator::makespan).
  TimeMs makespan(std::span<const TaskView> tasks,
                  InterleaveWorkspace& ws) const;

  /// Linear-scan reference with identical breakpoint arithmetic, kept for
  /// parity tests. Bit-identical to run() and makespan().
  InterleaveResult run_slow_reference(
      const std::vector<ThreadTask>& tasks) const;

 private:
  std::size_t cpus_;
  bool record_spans_;
};

}  // namespace chiron
