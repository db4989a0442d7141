// Live-thread execution engine: runs FunctionBehavior traces on real
// std::thread's, either under the emulated GIL (pseudo-parallel, CPython
// semantics) or free-running (true parallel, Java/pool semantics). Returns
// the same InterleaveResult shape as the simulators so tests can
// cross-validate Algorithm 1 against actual preempted threads.
//
// CPU segments busy-spin on a calibrated kernel; block segments sleep with
// the GIL released — exactly the contract of Fig. 2.
#pragma once

#include "common/types.h"
#include "fault/fault.h"
#include "runtime/gil.h"

namespace chiron {

/// What apply_faults did to a task vector.
struct LiveFaultReport {
  std::size_t stragglers = 0;  ///< tasks dilated by the straggler multiplier
  std::size_t crashes = 0;     ///< tasks truncated by a mid-run crash
  std::vector<bool> crashed;   ///< per task: true when it will die mid-run
};

/// Applies `injector`'s straggler/crash decisions to live-thread tasks
/// before execution: a straggling task has every segment dilated by the
/// spec's multiplier; a crashing task is truncated at crash_point of its
/// solo latency — the thread runs to that instant and dies, which is how
/// a real mid-execution crash looks to the wall clock. Task i draws from
/// decision cell (request_id, i + 1), so a seeded spec reproduces the
/// same fault pattern run-to-run. Counts each fault on the global
/// MetricsRegistry (count_injected) and, when enabled, records it on the
/// global FlightRecorder.
LiveFaultReport apply_faults(std::vector<ThreadTask>& tasks,
                             const FaultInjector& injector,
                             std::uint64_t request_id = 0);

/// Calibrates the spin kernel (first call measures; later calls reuse).
/// Returns spin iterations per millisecond on this machine.
double spin_iterations_per_ms();

/// Busy-spins for approximately `ms` milliseconds.
void spin_for_ms(TimeMs ms);

class EmulatedGil;

/// Spins for `ms` of CPU while holding `gil`, yielding at ~0.2 ms
/// checkpoints when the switch interval has elapsed and others wait. Time
/// spent without the GIL (inside yield) does not count as progress.
void spin_with_gil(TimeMs ms, EmulatedGil& gil);

/// Executes `tasks` as live threads sharing one emulated GIL with the
/// given switch interval. Wall-clock spans are recorded per task.
/// A non-zero `request_id` threads end-to-end causality through the live
/// engine: task spans carry a "request" arg, and the global FlightRecorder
/// (when enabled) gets exec.begin/exec.end plus per-task fault events
/// keyed by that id — the same id space the cluster simulator mints at
/// admission (obs::mint_request_ids).
InterleaveResult execute_threads_gil(const std::vector<ThreadTask>& tasks,
                                     TimeMs switch_interval_ms,
                                     std::uint64_t request_id = 0);

/// Executes `tasks` as free-running live threads (no GIL). On a machine
/// with enough cores this realises true parallelism; on fewer cores the
/// OS scheduler time-shares, mirroring CpuShareSimulator with that core
/// count. `request_id` as in execute_threads_gil.
InterleaveResult execute_threads_parallel(const std::vector<ThreadTask>& tasks,
                                          std::uint64_t request_id = 0);

}  // namespace chiron
