#include "platform/one_to_one.h"

#include <algorithm>

namespace chiron {

OneToOneBackend::OneToOneBackend(OneToOneKind kind, RuntimeParams params,
                                 Workflow wf, NoiseConfig noise)
    : kind_(kind),
      params_(params),
      wf_(std::move(wf)),
      noise_(noise),
      transfer_(kind == OneToOneKind::kAsf ? s3_remote() : minio_local()) {}

std::string OneToOneBackend::name() const {
  return kind_ == OneToOneKind::kAsf ? "ASF" : "OpenFaaS";
}

TimeMs OneToOneBackend::scheduling_ms(std::size_t fan_out) const {
  return kind_ == OneToOneKind::kAsf ? params_.asf_scheduling_ms(fan_out)
                                     : params_.openfaas_scheduling_ms(fan_out);
}

RunResult OneToOneBackend::run(Rng& rng) const {
  RunResult result;
  const double run_scale = noise_.run_scale(rng);
  TimeMs t = 0.0;
  Bytes upstream_bytes = 0;       // intermediate data the stage must pull
  std::size_t upstream_objects = 0;  // one stored object per predecessor

  for (StageId s = 0; s < wf_.stage_count(); ++s) {
    const Stage& stage = wf_.stage(s);
    const std::size_t n = stage.parallelism();
    const TimeMs sched_total = noise_.jit(scheduling_ms(n), rng);
    // The entry stage receives its payload with the invocation; later
    // stages pull their predecessors' outputs from storage. Fan-in means
    // one GET per predecessor object; requests overlap only partially
    // (~50 %), so wide fan-ins pay repeatedly (Obs. 1).
    TimeMs pull = 0.0;
    if (s > 0 && upstream_objects > 0) {
      const Bytes avg_obj = upstream_bytes / upstream_objects;
      const double effective_requests =
          1.0 + 0.5 * static_cast<double>(upstream_objects - 1);
      pull = noise_.jit(transfer_.latency_ms(avg_obj) * effective_requests,
                        rng);
    }

    TimeMs stage_latency = 0.0;
    Bytes stage_output = 0;
    for (std::size_t k = 0; k < n; ++k) {
      const FunctionId f = stage.functions[k];
      const FunctionSpec& spec = wf_.function(f);
      // Dispatches ramp linearly across the scheduling window.
      const TimeMs dispatch =
          sched_total * static_cast<TimeMs>(k + 1) / static_cast<TimeMs>(n);
      const TimeMs invoke = noise_.jit(params_.sandbox_invoke_ms, rng);
      TimeMs exec = 0.0;
      FunctionTimeline tl;
      tl.id = f;
      tl.invoke_ms = t + dispatch;
      tl.start_exec_ms = t + dispatch + invoke + pull;
      {
        // Solo execution in a dedicated sandbox: spans follow the
        // behaviour directly.
        TimeMs cursor = tl.start_exec_ms;
        for (const Segment& seg : spec.behavior.segments()) {
          const TimeMs d = noise_.jit(seg.duration, rng);
          tl.spans.push_back({seg.kind == Segment::Kind::kCpu
                                  ? TimelineSpan::Kind::kCpu
                                  : TimelineSpan::Kind::kBlock,
                              cursor, cursor + d});
          cursor += d;
          exec += d;
        }
      }
      // Results of non-final stages are pushed to storage for successors.
      const TimeMs push =
          s + 1 < wf_.stage_count()
              ? noise_.jit(transfer_.latency_ms(spec.output_bytes), rng)
              : 0.0;
      tl.finish_ms = tl.start_exec_ms + exec + push;
      stage_latency = std::max(stage_latency, tl.finish_ms - t);
      stage_output += spec.output_bytes;
      result.functions.push_back(std::move(tl));
    }
    result.stage_latency_ms.push_back(stage_latency);
    t += stage_latency;
    upstream_bytes = stage_output;
    upstream_objects = n;
  }

  result.e2e_latency_ms = t;
  result.scale(run_scale);
  // ASF bills one transition into and out of every state (Fig. 19).
  result.state_transitions =
      kind_ == OneToOneKind::kAsf ? wf_.function_count() + wf_.stage_count() + 1
                                  : 0;
  return result;
}

ResourceUsage OneToOneBackend::resources() const {
  ResourceUsage usage;
  for (const FunctionSpec& spec : wf_.functions()) {
    usage.memory_mb += sandbox_memory_mb(params_, /*processes=*/1,
                                         /*threads=*/0, /*pool_workers=*/0,
                                         spec.memory_mb);
    usage.sandboxes += 1;
    usage.processes += 1;
  }
  // Uniform allocation: every function holds a whole CPU (Obs. 4).
  usage.cpus = static_cast<double>(wf_.function_count());
  return usage;
}

}  // namespace chiron
