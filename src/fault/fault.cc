#include "fault/fault.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/recorder.h"

namespace chiron {

TimeMs RetryPolicy::backoff_ms(std::uint32_t attempt, double u01) const {
  if (attempt == 0) attempt = 1;
  // Saturate the shift well before overflow; the cap dominates anyway.
  const std::uint32_t exp = std::min<std::uint32_t>(attempt - 1, 30);
  const TimeMs uncapped =
      base_backoff_ms * static_cast<TimeMs>(1ull << exp);
  const TimeMs capped = std::min(uncapped, max_backoff_ms);
  const double swing = jitter * (2.0 * u01 - 1.0);  // in [-jitter, jitter)
  return std::max<TimeMs>(0.0, capped * (1.0 + swing));
}

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kColdStart: return "cold_start";
    case FaultKind::kCrash: return "crash";
    case FaultKind::kStraggler: return "straggler";
    case FaultKind::kRetryJitter: return "retry_jitter";
    case FaultKind::kNodeCrash: return "node_crash";
  }
  return "unknown";
}

void count_injected(obs::MetricsRegistry& metrics, FaultKind kind,
                    std::int64_t n) {
  metrics.counter("chiron.fault.injected").inc(n);
  metrics.counter(std::string("chiron.fault.injected.") + to_string(kind))
      .inc(n);
}

obs::RecKind rec_kind(FaultKind kind) {
  switch (kind) {
    case FaultKind::kColdStart: return obs::RecKind::kFaultColdStart;
    case FaultKind::kCrash: return obs::RecKind::kFaultCrash;
    case FaultKind::kStraggler: return obs::RecKind::kFaultStraggler;
    case FaultKind::kNodeCrash: return obs::RecKind::kNodeCrash;
    case FaultKind::kRetryJitter: break;
  }
  throw std::logic_error(std::string("rec_kind: '") + to_string(kind) +
                         "' is not an injected fault");
}

double FaultInjector::roll(FaultKind kind, std::uint64_t entity,
                           std::uint64_t attempt) const {
  // Golden-ratio multiples keep the three coordinates from aliasing; two
  // splitmix64 rounds whiten the combination.
  std::uint64_t state = spec_.seed;
  state ^= (static_cast<std::uint64_t>(kind) + 1) * 0x9E3779B97F4A7C15ull;
  state ^= (entity + 1) * 0xBF58476D1CE4E5B9ull;
  state ^= (attempt + 1) * 0x94D049BB133111EBull;
  splitmix64(state);
  const std::uint64_t bits = splitmix64(state);
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

TimeMs FaultInjector::retry_backoff_ms(const RetryPolicy& policy,
                                       std::uint32_t attempt,
                                       std::uint64_t entity) const {
  return policy.backoff_ms(attempt,
                           roll(FaultKind::kRetryJitter, entity, attempt));
}

namespace {

// `value` as one finite number spanning the whole string (no leading
// blanks, no trailing text).
double parse_number(const std::string& what, const std::string& value) {
  std::size_t used = 0;
  double v = 0.0;
  if (!value.empty() && !std::isspace(static_cast<unsigned char>(value[0]))) {
    try {
      v = std::stod(value, &used);
    } catch (const std::exception&) {
      used = 0;
    }
  }
  if (used == 0 || used != value.size()) {
    throw std::invalid_argument("fault spec: bad value for '" + what +
                                "': '" + value + "'");
  }
  if (!std::isfinite(v)) {
    throw std::invalid_argument("fault spec: '" + what +
                                "' must be finite, got '" + value + "'");
  }
  return v;
}

double parse_prob(const std::string& key, const std::string& value) {
  const double p = parse_number(key, value);
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument("fault spec: '" + key +
                                "' must be a probability in [0, 1], got '" +
                                value + "'");
  }
  return p;
}

std::uint64_t parse_seed(const std::string& value) {
  const bool digits =
      !value.empty() &&
      std::all_of(value.begin(), value.end(), [](unsigned char c) {
        return std::isdigit(c) != 0;
      });
  try {
    if (digits) return std::stoull(value);
  } catch (const std::exception&) {
  }
  throw std::invalid_argument(
      "fault spec: 'seed' must be a whole number in [0, 2^64), got '" + value +
      "'");
}

}  // namespace

FaultSpec parse_fault_spec(const std::string& text) {
  FaultSpec spec;
  std::stringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("fault spec: expected key=value in '" +
                                  item + "'");
    }
    const std::string key = item.substr(0, eq);
    std::string value = item.substr(eq + 1);
    if (key == "cold") {
      spec.cold_start_failure = parse_prob(key, value);
    } else if (key == "crash") {
      const std::size_t at = value.find('@');
      if (at != std::string::npos) {
        spec.crash_point = parse_prob("crash point", value.substr(at + 1));
        value.resize(at);
      }
      spec.crash = parse_prob(key, value);
    } else if (key == "straggler") {
      const std::size_t x = value.find('x');
      if (x != std::string::npos) {
        const std::string mult = value.substr(x + 1);
        spec.straggler_multiplier = parse_number("straggler multiplier", mult);
        if (spec.straggler_multiplier < 1.0) {
          throw std::invalid_argument(
              "fault spec: straggler multiplier must be >= 1, got '" + mult +
              "'");
        }
        value.resize(x);
      }
      spec.straggler = parse_prob(key, value);
    } else if (key == "node") {
      spec.node_crash = parse_prob(key, value);
    } else if (key == "seed") {
      spec.seed = parse_seed(value);
    } else {
      throw std::invalid_argument("fault spec: unknown key '" + key + "'");
    }
  }
  return spec;
}

std::string to_string(const FaultSpec& spec) {
  std::ostringstream out;
  auto sep = [&out, first = true]() mutable {
    if (!first) out << ",";
    first = false;
  };
  if (spec.cold_start_failure > 0.0) {
    sep();
    out << "cold=" << spec.cold_start_failure;
  }
  if (spec.crash > 0.0) {
    sep();
    out << "crash=" << spec.crash << "@" << spec.crash_point;
  }
  if (spec.straggler > 0.0) {
    sep();
    out << "straggler=" << spec.straggler << "x" << spec.straggler_multiplier;
  }
  if (spec.node_crash > 0.0) {
    sep();
    out << "node=" << spec.node_crash;
  }
  sep();
  out << "seed=" << spec.seed;
  return out.str();
}

}  // namespace chiron
