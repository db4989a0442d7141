// PredictionCache — memoization of span-recording ProcessGroup simulations.
//
// A CPU-capped wrap is predicted by a second-level simulation over each
// process's effective CPU/block profile, which needs the group's full
// timeline spans (Predictor::group_exec). PGP's min-CPU bisection re-asks
// the same plan at several caps, so the same groups come back with
// unchanged spans; the cache memoizes the (deterministic) result keyed by
// everything the simulation depends on. Makespans — every KL evaluation,
// wrap packing and uncapped prediction — do not go through it: the
// kernels' makespan-only entry costs less than a lookup that mostly
// misses.
//
// Key canonicalization: a group's function *sequence* is the canonical key,
// not the sorted set — thread spawn order staggers ready times (Algorithm 1
// lines 4-5), so permutations of the same set are distinct simulations.
// Runtime parameters and the conservative factor are deliberately absent
// from the key: a cache instance belongs to one Predictor, whose
// PredictorConfig (params, runtime) is immutable for its lifetime.
//
// Thread safety: lookups and inserts are safe from concurrent deploy-pool
// workers. The map is sharded by key hash; results are shared_ptrs so a
// hit never copies the simulation. On a racing double-compute both threads
// produce the identical deterministic result and the second insert is a
// no-op, so callers never observe divergent values.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "runtime/gil.h"

namespace chiron {

/// Everything a ProcessGroup simulation depends on (given a fixed
/// PredictorConfig): the ordered function sequence, how the group executes
/// (thread vs forked process changes overhead application), the isolation
/// mechanism, the CPU cap of the simulation, and whether timeline spans
/// were recorded (span-less results are not substitutable for span-full
/// ones).
struct GroupCacheKey {
  std::vector<FunctionId> functions;
  ExecMode exec_mode = ExecMode::kProcess;
  IsolationMode isolation = IsolationMode::kNative;
  std::size_t cpus = 0;  ///< 0 = uncapped
  bool record_spans = false;

  friend bool operator==(const GroupCacheKey&, const GroupCacheKey&) = default;
};

/// FNV-1a over the key's bytes-that-matter.
struct GroupCacheKeyHash {
  std::size_t operator()(const GroupCacheKey& key) const;
};

/// Sharded memo table for group simulations. All methods are thread-safe.
class PredictionCache {
 public:
  /// Monotonic hit/miss counts (relaxed atomics; exact under quiescence).
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };

  /// Returns the cached result for `key`, or null on miss. Counts a hit
  /// or a miss.
  std::shared_ptr<const InterleaveResult> lookup(const GroupCacheKey& key);

  /// Stores `result` for `key` (first writer wins) and returns the stored
  /// entry.
  std::shared_ptr<const InterleaveResult> insert(const GroupCacheKey& key,
                                                 InterleaveResult result);

  Stats stats() const;
  std::size_t entry_count() const;
  void clear();

 private:
  static constexpr std::size_t kShards = 16;
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<GroupCacheKey,
                       std::shared_ptr<const InterleaveResult>,
                       GroupCacheKeyHash>
        map;
  };

  Shard& shard_for(const GroupCacheKey& key);

  std::array<Shard, kShards> shards_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace chiron
