// FunctionBehavior: the execution trace abstraction the whole system is
// built on. The paper's Profiler (§3.2) reduces a function to an alternating
// sequence of CPU periods and block periods (time inside blocking syscalls:
// sleep/read/write/poll/...). Both the Predictor's GIL simulation
// (Algorithm 1) and the platform simulator consume this representation.
#pragma once

#include <string>
#include <vector>

#include "common/types.h"

namespace chiron {

/// One homogeneous execution period.
struct Segment {
  enum class Kind : std::uint8_t { kCpu, kBlock };
  Kind kind = Kind::kCpu;
  TimeMs duration = 0.0;

  friend bool operator==(const Segment&, const Segment&) = default;
};

/// A [start, end) block interval relative to function start, the exact
/// artifact the paper's strace profiling produces (Fig. 10).
struct BlockPeriod {
  TimeMs start = 0.0;
  TimeMs end = 0.0;

  TimeMs duration() const { return end - start; }
  friend bool operator==(const BlockPeriod&, const BlockPeriod&) = default;
};

/// Alternating CPU/block trace of one function's solo execution.
class FunctionBehavior {
 public:
  FunctionBehavior() = default;

  /// Builds from explicit segments; adjacent same-kind segments are merged
  /// and zero-length segments dropped, so traces are canonical.
  explicit FunctionBehavior(std::vector<Segment> segments);

  /// Rebuilds a behavior from solo latency + block periods — the inverse
  /// direction, used by the Profiler to reconstitute a trace from strace
  /// observations. Periods must be disjoint, sorted, within [0, latency].
  static FunctionBehavior from_block_periods(
      TimeMs solo_latency, const std::vector<BlockPeriod>& periods);

  const std::vector<Segment>& segments() const { return segments_; }

  /// Total CPU time over the trace.
  TimeMs total_cpu() const;

  /// Total blocked (I/O) time over the trace.
  TimeMs total_block() const;

  /// Solo-run latency: sum of every segment.
  TimeMs solo_latency() const { return total_cpu() + total_block(); }

  /// Block intervals relative to function start at time 0.
  std::vector<BlockPeriod> block_periods() const;

  /// Returns a copy with every duration multiplied by `factor` (> 0);
  /// used to scale workloads and to de-inflate strace overhead (§3.2).
  FunctionBehavior scaled(double factor) const;

  /// Returns a copy with only block durations multiplied by `factor`;
  /// the Profiler's strace-overhead correction rescales blocks only.
  FunctionBehavior with_blocks_scaled(double factor) const;

  /// Returns a copy with every CPU duration multiplied by (1 + overhead);
  /// models MPK/SFI instruction-count execution overhead (Table 1).
  FunctionBehavior with_cpu_overhead(double overhead) const;

  /// Replaces every duration d by `f(d)` in place, in segment order; used
  /// for per-run jitter. `f` must map a positive duration to a positive
  /// one, which keeps the trace canonical without a rebuild.
  template <class F>
  void transform_durations(F&& f) {
    for (Segment& s : segments_) s.duration = f(s.duration);
  }

  bool empty() const { return segments_.empty(); }

  friend bool operator==(const FunctionBehavior&,
                         const FunctionBehavior&) = default;

 private:
  std::vector<Segment> segments_;
};

/// Builders for the behaviour archetypes the paper evaluates (SLApp's
/// factorial / fibonacci / disk-io / network-io function classes, §2.2).

/// Pure CPU burn of the given duration.
FunctionBehavior cpu_bound(TimeMs cpu_ms);

/// Small CPU prologue/epilogue around one long block (network call).
FunctionBehavior network_io_bound(TimeMs cpu_ms, TimeMs block_ms);

/// CPU interleaved with several short disk waits.
FunctionBehavior disk_io_bound(TimeMs cpu_ms, TimeMs block_total_ms,
                               int block_count);

/// Arbitrary alternating trace starting with CPU:
/// {cpu, block, cpu, block, ...} from the given durations.
FunctionBehavior alternating(const std::vector<TimeMs>& durations);

}  // namespace chiron
