// Deterministic fault injection and recovery policies.
//
// Real FaaS platforms lose sandboxes mid-boot, crash functions mid-run,
// suffer straggling instances and lose whole nodes; workflow engines
// (Netherite, Durable Functions) recover from these events at the layer
// that serves and retries requests. So does this reproduction: the
// serving engine (ClusterSimulator, and its reference oracle) is the only
// consumer of this seeded fault model. It decides every fault per attempt
// around the latency a plan backend returns, so SLO behaviour under
// failure is measurable and *exactly* reproducible. The plan backends and
// the live std::thread engine inject no faults.
//
// Decisions are derived by hashing (seed, kind, entity, attempt) through
// splitmix64 rather than by consuming a shared Rng stream: a fault roll
// never perturbs the simulation's other random draws, so enabling a fault
// kind with probability 0 is byte-identical to disabling it, and two runs
// with the same spec agree regardless of event interleaving.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.h"

namespace chiron::obs {
class MetricsRegistry;
enum class RecKind : std::uint8_t;
}  // namespace chiron::obs

namespace chiron {

/// Per-component fault probabilities and shapes. All-zero = healthy.
struct FaultSpec {
  /// P(a sandbox cold start fails); the boot time is still paid.
  double cold_start_failure = 0.0;
  /// P(an attempt crashes mid-execution); the sandbox is lost.
  double crash = 0.0;
  /// Fraction of the attempt's service time at which the crash lands.
  double crash_point = 0.5;
  /// P(an attempt lands on a straggling instance).
  double straggler = 0.0;
  /// Service-time dilation of a straggling attempt.
  double straggler_multiplier = 4.0;
  /// P(a whole node crashes once during the run) — sharded cluster runs
  /// only. A crashing node fails its in-flight attempts, drains its warm
  /// pool, and sends its queued requests back through the router; the
  /// node itself restarts immediately (cold).
  double node_crash = 0.0;
  /// Seed of the decision stream (independent of every other Rng).
  std::uint64_t seed = 0xFA017;

  /// True when any fault kind can fire.
  bool enabled() const {
    return cold_start_failure > 0.0 || crash > 0.0 || straggler > 0.0 ||
           node_crash > 0.0;
  }
};

/// Recovery policy: capped exponential backoff with deterministic jitter
/// plus an optional per-request deadline.
struct RetryPolicy {
  /// Total attempts per request (1 = fail-fast, no retry).
  std::uint32_t max_attempts = 1;
  /// Backoff before attempt a+1 is base * 2^(a-1), capped at max.
  TimeMs base_backoff_ms = 10.0;
  TimeMs max_backoff_ms = 2000.0;
  /// Backoff is scaled by 1 +/- jitter * u, u in [-1, 1) drawn
  /// deterministically from the fault seed (decorrelates retry storms).
  double jitter = 0.2;
  /// Per-request deadline measured from arrival; 0 = none.
  TimeMs timeout_ms = 0.0;

  /// Capped exponential backoff for the retry after `attempt` (1-based)
  /// failed, jittered by `u01` in [0, 1).
  TimeMs backoff_ms(std::uint32_t attempt, double u01) const;
};

/// The fault kinds the injector can decide on. kRetryJitter is not a
/// fault: it names the decision stream backoff jitter draws from. The
/// kind's integer value feeds the decision hash, so every value is
/// written out and none may change: renumbering one would silently
/// reshuffle every seeded draw of that kind. Value 3 is unused.
enum class FaultKind : std::uint8_t {
  kColdStart = 0,
  kCrash = 1,
  kStraggler = 2,
  kRetryJitter = 4,
  kNodeCrash = 5,
};

/// Human-readable kind name ("cold_start", "crash", ...).
const char* to_string(FaultKind kind);

/// The one place injected faults are counted: adds `n` to
/// chiron.fault.injected and chiron.fault.injected.<kind> on `metrics`
/// (n = 0 still creates both, at zero).
void count_injected(obs::MetricsRegistry& metrics, FaultKind kind,
                    std::int64_t n = 1);

/// The FlightRecorder event kind of an injected fault. Throws
/// std::logic_error for kRetryJitter, which is not a fault.
obs::RecKind rec_kind(FaultKind kind);

/// Stateless decision oracle over a FaultSpec. `entity` is whatever
/// identifies the unit at risk (request index, task index); `attempt` is
/// the 1-based attempt or sub-event index. Identical (spec, entity,
/// attempt) always yield the identical decision.
///
/// Determinism contract: entity ids must be stable *per run* — e.g. the
/// ClusterSimulator hashes the arrival index, never the process-globally
/// minted observability request id (obs::mint_request_ids), so a seeded
/// run replays counter-exact no matter how many runs preceded it in the
/// process. Use the minted id for recorder/tracer events, the stable
/// index for fault decisions.
class FaultInjector {
 public:
  FaultInjector() = default;
  explicit FaultInjector(FaultSpec spec) : spec_(spec) {}

  bool enabled() const { return spec_.enabled(); }
  const FaultSpec& spec() const { return spec_; }

  /// Uniform [0, 1) draw of the (kind, entity, attempt) decision cell.
  double roll(FaultKind kind, std::uint64_t entity,
              std::uint64_t attempt) const;

  bool cold_start_fails(std::uint64_t entity, std::uint64_t attempt) const {
    return spec_.cold_start_failure > 0.0 &&
           roll(FaultKind::kColdStart, entity, attempt) <
               spec_.cold_start_failure;
  }
  bool crashes(std::uint64_t entity, std::uint64_t attempt) const {
    return spec_.crash > 0.0 &&
           roll(FaultKind::kCrash, entity, attempt) < spec_.crash;
  }
  bool straggles(std::uint64_t entity, std::uint64_t attempt) const {
    return spec_.straggler > 0.0 &&
           roll(FaultKind::kStraggler, entity, attempt) < spec_.straggler;
  }
  /// Whether node `node` crashes at all during the run (at most once).
  bool node_crashes(std::uint64_t node) const {
    return spec_.node_crash > 0.0 &&
           roll(FaultKind::kNodeCrash, node, 1) < spec_.node_crash;
  }
  /// Fraction of the horizon at which node `node`'s crash lands, in
  /// [0, 1) — a second decision cell so it is independent of whether the
  /// crash fires.
  double node_crash_frac(std::uint64_t node) const {
    return roll(FaultKind::kNodeCrash, node, 2);
  }

  /// Backoff before re-attempting `entity` after its `attempt`-th try
  /// failed, jittered from this injector's decision stream.
  TimeMs retry_backoff_ms(const RetryPolicy& policy, std::uint32_t attempt,
                          std::uint64_t entity) const;

 private:
  FaultSpec spec_;
};

/// Parses a compact operator-facing spec for the serving engine, e.g.
///   "cold=0.1,crash=0.05,straggler=0.2x4,node=0.2,seed=7"
/// Keys: cold, crash (optional "@frac" crash point, e.g. crash=0.1@0.3),
/// straggler (optional "xMULT"), node, seed. Throws std::invalid_argument
/// on malformed input or an unknown key.
FaultSpec parse_fault_spec(const std::string& text);

/// Round-trippable compact rendering of `spec` (only non-zero kinds).
std::string to_string(const FaultSpec& spec);

}  // namespace chiron
