// Request arrival processes for throughput experiments (Fig. 16/18 use a
// closed-loop "max RPS on one worker node" measurement; the open-loop
// Poisson generator supports load sweeps in the examples).
#pragma once

#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace chiron {

/// Kind of arrival process.
enum class ArrivalKind { kPoisson, kUniform, kBurst };

/// Generates request arrival timestamps over [0, horizon_ms).
class ArrivalGenerator {
 public:
  /// `rate_rps` is the mean arrival rate in requests/second; throws
  /// std::invalid_argument unless it is positive and finite.
  ArrivalGenerator(ArrivalKind kind, double rate_rps, Rng rng);

  /// Produces sorted arrival times (ms) within [0, horizon_ms); throws
  /// std::invalid_argument unless the horizon is non-negative and finite.
  std::vector<TimeMs> generate(TimeMs horizon_ms);

 private:
  ArrivalKind kind_;
  double rate_rps_;
  Rng rng_;
};

}  // namespace chiron
