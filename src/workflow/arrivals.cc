#include "workflow/arrivals.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace chiron {

ArrivalGenerator::ArrivalGenerator(ArrivalKind kind, double rate_rps, Rng rng)
    : kind_(kind), rate_rps_(rate_rps), rng_(rng) {
  // `!(rate > 0)` also catches NaN; an infinite rate would generate
  // without bound.
  if (!(rate_rps > 0.0) || !std::isfinite(rate_rps)) {
    throw std::invalid_argument("rate must be positive and finite");
  }
}

std::vector<TimeMs> ArrivalGenerator::generate(TimeMs horizon_ms) {
  if (!(horizon_ms >= 0.0) || !std::isfinite(horizon_ms)) {
    throw std::invalid_argument("horizon must be non-negative and finite");
  }
  std::vector<TimeMs> arrivals;
  const TimeMs mean_gap = 1000.0 / rate_rps_;
  switch (kind_) {
    case ArrivalKind::kPoisson: {
      TimeMs t = rng_.exponential(mean_gap);
      while (t < horizon_ms) {
        arrivals.push_back(t);
        t += rng_.exponential(mean_gap);
      }
      break;
    }
    case ArrivalKind::kUniform: {
      // Index-based generation: the old `t += mean_gap` accumulator
      // drifted by one ulp per step, so long horizons undercounted the
      // offered load versus rate * horizon.
      for (std::size_t i = 0;; ++i) {
        const TimeMs t = mean_gap * static_cast<TimeMs>(i + 1);
        if (t >= horizon_ms) break;
        arrivals.push_back(t);
      }
      break;
    }
    case ArrivalKind::kBurst: {
      // Bursts of 10 back-to-back requests separated so the mean rate holds.
      const int burst = 10;
      const TimeMs burst_gap = mean_gap * burst;
      for (TimeMs t0 = burst_gap * rng_.uniform(); t0 < horizon_ms;
           t0 += burst_gap) {
        for (int i = 0; i < burst && t0 + i * 0.1 < horizon_ms; ++i) {
          arrivals.push_back(t0 + i * 0.1);
        }
      }
      break;
    }
  }
  std::sort(arrivals.begin(), arrivals.end());
  return arrivals;
}

}  // namespace chiron
