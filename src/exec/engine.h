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
#include "runtime/gil.h"

namespace chiron {

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
/// (when enabled) gets exec.begin/exec.end events keyed by that id — the
/// same id space the cluster simulator mints at admission
/// (obs::mint_request_ids).
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
