#include "runtime/params.h"

#include <algorithm>
#include <cmath>

namespace chiron {

double IsolationParams::exec_overhead(double cpu_frac) const {
  const double f = std::clamp(cpu_frac, 0.0, 1.0);
  return std::max(0.0, exec_overhead_intercept + exec_overhead_slope * f);
}

double RuntimeParams::thread_contention(std::size_t co_resident) const {
  if (co_resident <= 1) return 1.0;
  return 1.0 + thread_contention_coeff *
                   std::pow(static_cast<double>(co_resident - 1),
                            thread_contention_exp);
}

TimeMs RuntimeParams::asf_scheduling_ms(std::size_t n) const {
  if (n == 0) return 0.0;
  // 150 ms to schedule one function; ~10 concurrent scheduling slots, so
  // fan-out beyond that serialises (~30 ms/extra function) and large
  // fan-outs hit queueing growth (FINRA-200 > 8 s, §6.2).
  const double nn = static_cast<double>(n);
  double t = 150.0;
  if (nn > 5.0) t += 30.0 * (nn - 5.0);
  if (nn > 50.0) t += 0.1 * (nn - 50.0) * (nn - 50.0);
  return t;
}

TimeMs RuntimeParams::openfaas_scheduling_ms(std::size_t n) const {
  if (n == 0) return 0.0;
  const double nn = static_cast<double>(n);
  // Quadratic fit through the Fig. 3 measurements (2 / 70 / 180 ms at
  // n = 5 / 25 / 50), clamped to a 0.3 ms/function floor for small n.
  const double fit = 0.022222 * nn * nn + 2.73333 * nn - 12.2222;
  return std::max(0.3 * nn, fit);
}

TimeMs RuntimeParams::spawn_gap_ms(Runtime rt, IsolationMode mode) const {
  if (rt == Runtime::kJava) return java_thread_startup_ms;
  // Node.js worker_threads pay >50 ms of startup per worker (§2.1) —
  // pool dispatch is unaffected (workers are resident).
  if (rt == Runtime::kNodeJs && mode != IsolationMode::kPool) {
    return node_worker_startup_ms;
  }
  switch (mode) {
    case IsolationMode::kNative: return thread_startup_ms;
    case IsolationMode::kMpk: return thread_startup_ms + mpk.startup_ms;
    case IsolationMode::kSfi: return thread_startup_ms + sfi.startup_ms;
    case IsolationMode::kPool: return pool_dispatch_ms;
  }
  return thread_startup_ms;
}

FunctionBehavior RuntimeParams::thread_behavior(FunctionBehavior b,
                                                Runtime rt,
                                                IsolationMode mode,
                                                std::size_t co_resident) const {
  if (mode == IsolationMode::kMpk || mode == IsolationMode::kSfi) {
    b = b.with_cpu_overhead(isolation_overhead(b, mode));
  }
  // GIL convoy / cache contention among co-resident threads.
  if (has_gil(rt) && co_resident > 1) {
    b = b.with_cpu_overhead(contention_overhead(rt, co_resident));
  }
  return b;
}

double RuntimeParams::isolation_overhead(const FunctionBehavior& b,
                                         IsolationMode mode) const {
  if (mode != IsolationMode::kMpk && mode != IsolationMode::kSfi) return 0.0;
  const IsolationParams& iso = mode == IsolationMode::kMpk ? mpk : sfi;
  const TimeMs total = b.solo_latency();
  const double cpu_fraction = total <= 0.0 ? 1.0 : b.total_cpu() / total;
  return iso.exec_overhead(cpu_fraction);
}

double RuntimeParams::contention_overhead(Runtime rt,
                                          std::size_t co_resident) const {
  if (!has_gil(rt) || co_resident <= 1) return 0.0;
  return thread_contention(co_resident) - 1.0;
}

TimeMs RuntimeParams::interaction_ms(IsolationMode mode,
                                     std::size_t group_size) const {
  if (group_size <= 1) return 0.0;
  const TimeMs per = mode == IsolationMode::kSfi   ? sfi.interaction_ms
                     : mode == IsolationMode::kMpk ? mpk.interaction_ms
                                                   : 0.0;
  return per * static_cast<TimeMs>(group_size - 1);
}

const RuntimeParams& RuntimeParams::defaults() {
  static const RuntimeParams params{};
  return params;
}

}  // namespace chiron
