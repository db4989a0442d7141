#include "platform/backend.h"

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

TimeMs Backend::mean_latency(Rng& rng, int runs) const {
  if (runs <= 0) return 0.0;
  TimeMs sum = 0.0;
  for (int i = 0; i < runs; ++i) sum += latency(rng);
  return sum / static_cast<TimeMs>(runs);
}

}  // namespace chiron
