// Internals shared between the reference loop (cluster.cc) and the
// windowed engine (cluster_parallel.cc): the capacity arithmetic, kept in
// one place so both perform the identical float arithmetic — not linked
// for external use.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "platform/cluster.h"

namespace chiron {
namespace cluster_detail {

/// Floors a fractional instance count with a relative epsilon: a resource
/// ratio that lands an ulp below an exact integer (40 / (40/3.0) =
/// 9.999999999999998) must count as that integer, not one less. The
/// epsilon is far too small to ever round a genuinely fractional ratio
/// up.
inline std::size_t floor_capacity(double capacity) {
  if (!std::isfinite(capacity)) return 0;
  return static_cast<std::size_t>(capacity * (1.0 + 1e-9));
}

/// Instances ONE node can host — the engine's per-node capacity. A node
/// scaled to k nodes' resources (node_cpus * k, node_memory_mb * k) is
/// float-identical to the reference loop's pooled capacity at nodes == k:
/// both numerators are the same products, so the divisions and the
/// epsilon floor agree bit-for-bit (the parity anchor).
inline std::size_t node_capacity(const ResourceUsage& usage,
                                 const RuntimeParams& params) {
  const double node_cpus = static_cast<double>(params.node_cpus);
  const double node_mem = params.node_memory_mb;
  double capacity = std::numeric_limits<double>::infinity();
  if (usage.cpus > 0.0) capacity = std::min(capacity, node_cpus / usage.cpus);
  if (usage.memory_mb > 0.0) {
    capacity = std::min(capacity, node_mem / usage.memory_mb);
  }
  return std::max<std::size_t>(1, floor_capacity(capacity));
}

/// The windowed (conservative-PDES) engine behind
/// ClusterSimulator::run_prepared at every node count: builds one
/// WindowedEngine for the run and runs it. The engine is private to
/// cluster_parallel.cc, in two halves: a shard half that advances one
/// Shard& through a window, reading only the const run context and the
/// request table, and a coordinator half that owns the router, pending
/// transfers, node crashes, the (time, node) merge, the window counters
/// and teardown. sim_threads == 1 runs the identical schedule inline, so
/// results are bit-identical across thread counts.
ClusterResult run_prepared_windowed(const ClusterConfig& config,
                                    const RuntimeParams& params,
                                    const Backend& backend,
                                    std::size_t cascading_stages,
                                    const std::vector<TimeMs>& arrival_times,
                                    std::uint64_t id_base);

}  // namespace cluster_detail
}  // namespace chiron
