// Request routing across sharded cluster nodes.
//
// The sharded serving loop (ClusterSimulator::run_prepared) gives every
// node its own capacity, warm-instance ring, and waiting queue; the
// Router decides which node each request attempt is dispatched to. The
// policies cover the span real schedulers occupy: oblivious spreading
// (round-robin, random), load-aware balancing (least-outstanding,
// power-of-two-choices), and locality-aware placement (warm-affinity,
// the ICPS-style policy that sends requests where a warm instance is
// already resident so cold starts are paid once, not per node).
//
// pick() is allocation-free and draws only from the router's private Rng
// stream, so enabling a randomized policy never perturbs the simulation's
// service-time draws; a lone node never consults the router at all, so a
// nodes=1 run stays bit-identical to the reference loop no matter which
// policy is configured.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"

namespace chiron {

/// Placement policies for the sharded serving loop.
enum class RouterPolicy : std::uint8_t {
  kRoundRobin,        ///< cycle node 0, 1, ..., n-1, 0, ...
  kRandom,            ///< uniform random node
  kLeastOutstanding,  ///< fewest busy + queued attempts (ties: lowest id)
  kPowerOfTwo,        ///< two random candidates, keep the less loaded
  kWarmAffinity,      ///< most warm instances; least-outstanding when none
};

/// Stable policy name ("round_robin", "warm_affinity", ...).
const char* to_string(RouterPolicy policy);

/// Parses a policy name as printed by to_string (dashes also accepted,
/// e.g. "power-of-two"). Throws std::invalid_argument on unknown names.
RouterPolicy parse_router_policy(const std::string& text);

/// What the router sees of one node at pick time. Kept to two counters so
/// the serving loop can refresh every view with plain integer stores.
struct RouterNodeView {
  std::uint32_t outstanding = 0;  ///< busy + queued attempts on the node
  std::uint32_t warm = 0;         ///< idle warm instances resident
};

/// Pluggable node picker. Deterministic for a given (policy, seed, call
/// sequence); randomized policies consume only the router's own Rng.
class Router {
 public:
  Router(RouterPolicy policy, std::size_t nodes, Rng rng)
      : policy_(policy), nodes_(nodes), rng_(rng) {}

  RouterPolicy policy() const { return policy_; }

  /// Picks the target node for one dispatch among views[0..n). n must be
  /// >= 1 and match the node count the router was built for.
  std::uint32_t pick(const RouterNodeView* views, std::uint32_t n);

 private:
  RouterPolicy policy_;
  std::size_t nodes_;
  std::uint32_t rr_next_ = 0;
  Rng rng_;
};

/// Barrier-published routing snapshot for the windowed parallel engine.
/// Stateful policies (least_outstanding, power_of_two, warm_affinity)
/// cannot read live per-node state while workers advance their windows,
/// so the coordinator republishes every node's view at each window
/// barrier and routes the whole batch of pending dispatches against it.
/// apply_pick() folds each decision back into the snapshot (one more
/// outstanding attempt; one warm instance claimed) so consecutive picks
/// in the same batch see each other — the same self-consistency the
/// sequential loop gets by refreshing views before every pick.
class RouterSnapshot {
 public:
  explicit RouterSnapshot(std::size_t nodes) : views_(nodes) {}

  void publish(std::size_t k, std::uint32_t outstanding, std::uint32_t warm) {
    views_[k].outstanding = outstanding;
    views_[k].warm = warm;
  }

  /// Synthetic post-pick update: the routed attempt now occupies `k`.
  void apply_pick(std::size_t k) {
    ++views_[k].outstanding;
    if (views_[k].warm > 0) --views_[k].warm;
  }

  const RouterNodeView* data() const { return views_.data(); }
  std::uint32_t size() const {
    return static_cast<std::uint32_t>(views_.size());
  }

 private:
  std::vector<RouterNodeView> views_;
};

}  // namespace chiron
