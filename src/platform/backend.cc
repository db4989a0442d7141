#include "platform/backend.h"

#include "obs/metrics.h"

namespace chiron {

void RunResult::scale(double factor) {
  if (factor == 1.0) return;
  e2e_latency_ms *= factor;
  for (TimeMs& s : stage_latency_ms) s *= factor;
  for (FunctionTimeline& tl : functions) {
    tl.invoke_ms *= factor;
    tl.start_exec_ms *= factor;
    tl.finish_ms *= factor;
    for (TimelineSpan& span : tl.spans) {
      span.begin *= factor;
      span.end *= factor;
    }
  }
}

double NoiseConfig::straggle(Rng& rng) const {
  if (faults && faults->spec().straggler > 0.0 &&
      rng.uniform() < faults->spec().straggler) {
    count_injected(obs::MetricsRegistry::global(), FaultKind::kStraggler);
    return faults->spec().straggler_multiplier;
  }
  return 1.0;
}

TimeMs NoiseConfig::transfer(TimeMs latency, Rng& rng) const {
  if (faults && faults->spec().transfer_error > 0.0 &&
      rng.uniform() < faults->spec().transfer_error) {
    count_injected(obs::MetricsRegistry::global(), FaultKind::kTransfer);
    return latency + faults->spec().transfer_retry_ms;
  }
  return latency;
}

TimeMs Backend::mean_latency(Rng& rng, int runs) const {
  if (runs <= 0) return 0.0;
  TimeMs sum = 0.0;
  for (int i = 0; i < runs; ++i) sum += latency(rng);
  return sum / static_cast<TimeMs>(runs);
}

}  // namespace chiron
