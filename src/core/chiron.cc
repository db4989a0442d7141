#include "core/chiron.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "metrics/stats.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"

namespace chiron {
namespace {

// Mirrors one deploy's outcome into the global MetricsRegistry so external
// scrapes (chironctl --metrics) see exactly what the Deployment reports.
void record_deploy_metrics(const Deployment& d) {
  obs::MetricsRegistry& m = obs::MetricsRegistry::global();
  m.counter("chiron.deploy.count").inc();
  m.counter("chiron.deploy.outer_iterations")
      .inc(static_cast<std::int64_t>(d.stats.outer_iterations));
  m.counter("chiron.deploy.kl_evaluations")
      .inc(static_cast<std::int64_t>(d.stats.kl_evaluations));
  m.counter("chiron.deploy.predictor_calls")
      .inc(static_cast<std::int64_t>(d.stats.predictor_calls));
  m.counter(d.slo_met ? "chiron.deploy.slo_met" : "chiron.deploy.slo_missed")
      .inc();
  m.gauge("chiron.deploy.processes")
      .set(static_cast<double>(d.processes));
  m.histogram("chiron.deploy.predicted_latency_ms")
      .observe(d.predicted_latency_ms);
}

}  // namespace

SloMonitor::SloMonitor(SloMonitorConfig config) : config_(config) {
  if (config_.window == 0) throw std::invalid_argument("window must be > 0");
}

void SloMonitor::record(TimeMs latency_ms, bool ok) {
  window_.push_back({ok ? latency_ms : 0.0, ok});
  if (!ok) ++failures_;
  if (window_.size() > config_.window) {
    if (!window_.front().ok) --failures_;
    window_.pop_front();
  }
}

double SloMonitor::failure_rate() const {
  if (window_.empty()) return 0.0;
  return static_cast<double>(failures_) /
         static_cast<double>(window_.size());
}

TimeMs SloMonitor::p95_ms() const {
  std::vector<double> ok_latencies;
  ok_latencies.reserve(window_.size());
  for (const Sample& s : window_) {
    if (s.ok) ok_latencies.push_back(s.latency_ms);
  }
  if (ok_latencies.empty()) return 0.0;
  return percentile(std::move(ok_latencies), 95.0);
}

bool SloMonitor::violated(TimeMs slo_ms) const {
  if (!warmed_up()) return false;
  return failure_rate() > config_.max_failure_rate || p95_ms() > slo_ms;
}

Chiron::Chiron(ChironConfig config)
    : config_(std::move(config)), rng_(config_.seed) {}

Deployment Chiron::deploy(const Workflow& wf, TimeMs slo_ms) {
  return deploy_internal(wf, slo_ms, 1.0, false);
}

Deployment Chiron::deploy_degraded(const Workflow& wf, TimeMs slo_ms,
                                   double inflation, bool force_one_to_one) {
  if (inflation < 1.0 || !std::isfinite(inflation)) {
    throw std::invalid_argument("inflation must be >= 1");
  }
  return deploy_internal(wf, slo_ms, inflation, force_one_to_one);
}

std::optional<Deployment> Chiron::replan_if_degraded(const SloMonitor& monitor,
                                                     const Workflow& wf,
                                                     TimeMs slo_ms,
                                                     const Deployment& current) {
  if (!monitor.violated(slo_ms)) return std::nullopt;
  obs::MetricsRegistry& m = obs::MetricsRegistry::global();
  // The breach is exactly the moment the flight recorder exists for:
  // stamp it into the event stream, then snapshot the black box (the
  // armed auto-dump path) *before* replanning mutates the world further.
  obs::FlightRecorder& rec = obs::FlightRecorder::global();
  if (rec.enabled()) {
    rec.record(obs::RecKind::kSloBreach, 0, 0, rec.now_ms(),
               monitor.p95_ms());
    rec.auto_dump();
  }
  m.counter("chiron.slo.breaches").inc();
  if (monitor.failure_rate() > monitor.config().max_failure_rate) {
    // The wrap plan itself is a liability: one crashing thread kills all
    // its co-residents. Retreat to the smallest blast radius.
    m.counter("chiron.degrade.fallbacks").inc();
    return deploy_degraded(wf, slo_ms, 1.0, /*force_one_to_one=*/true);
  }
  // Latency-only violation: the world is slower than the profiles said
  // (stragglers, contention). The observed-over-predicted ratio is the
  // slowdown the profiles missed; replan budgeting for it, plus a safety
  // margin so the recovered p95 — which still carries the same slowdown —
  // lands at ~SLO/margin instead of on the SLO. Capped: past ~32x the
  // prediction is unrecoverable by planning.
  constexpr double kSafetyMargin = 1.3;
  constexpr double kMaxInflation = 32.0;
  const double predicted = std::max(current.predicted_latency_ms, 1e-9);
  const double slowdown = monitor.p95_ms() / predicted;
  const double inflation =
      std::clamp(slowdown * kSafetyMargin, 1.0, kMaxInflation);
  m.counter("chiron.degrade.replans").inc();
  m.gauge("chiron.degrade.inflation").set(inflation);
  m.gauge("chiron.degrade.safety_margin").set(kSafetyMargin);
  if (rec.enabled()) {
    rec.record(obs::RecKind::kReplan, 0, 0, rec.now_ms(), inflation);
  }
  return deploy_degraded(wf, slo_ms, inflation);
}

Deployment Chiron::deploy_internal(const Workflow& wf, TimeMs slo_ms,
                                   double inflation, bool force_one_to_one) {
  if (slo_ms <= 0.0) throw std::invalid_argument("SLO must be positive");
  wf.validate();

  obs::Tracer& tracer = obs::Tracer::global();
  obs::ScopedSpan deploy_span(tracer, "chiron.deploy", "deploy",
                              {{"slo_ms", slo_ms}});

  Deployment deployment;
  deployment.profile_inflation = inflation;
  deployment.fell_back_one_to_one = force_one_to_one;
  deployment.degraded = force_one_to_one || inflation != 1.0;

  // Step 2 (Fig. 9): profile every function solo.
  std::vector<FunctionBehavior> behaviors;
  {
    obs::ScopedSpan span(tracer, "profile", "deploy");
    Profiler profiler(config_.profiler, rng_.split());
    deployment.profiles = profiler.profile_workflow(wf);
    behaviors = Profiler::behaviors(deployment.profiles);
  }
  if (inflation != 1.0) {
    // Degraded replan: plan for the slowdown the SloMonitor observed,
    // not the optimistic solo profiles.
    for (FunctionBehavior& b : behaviors) b = b.scaled(inflation);
  }

  const Runtime runtime =
      wf.function_count() > 0 ? wf.function(0).runtime : Runtime::kPython3;

  if (force_one_to_one || config_.mode == IsolationMode::kPool) {
    // Fixed-shape plans, predicted honestly so callers see what they
    // cost. The fallback is one sandbox per function, no sharing. Under
    // §4's pool, workers give true parallelism with negligible startup, so
    // all functions share a single wrap; only the CPU allocation is tuned.
    obs::ScopedSpan span(
        tracer, force_one_to_one ? "one_to_one_fallback" : "pool_plan",
        "deploy");
    Predictor predictor(
        PredictorConfig{config_.params, runtime, config_.conservative_factor,
                        config_.prediction_cache},
        behaviors);
    WrapPlan plan;
    if (force_one_to_one) {
      plan = one_to_one_plan(wf);
    } else {
      // Same bounded give-back as PGP: CPU sharing may cost at most ~10 %
      // latency relative to the fully-parallel pool.
      plan = pool_plan(wf);
      const TimeMs uncapped = predictor.workflow_latency(plan);
      const TimeMs target = std::min(slo_ms, uncapped * 1.10);
      plan = PgpScheduler::with_min_cpus(predictor, std::move(plan), target);
    }
    deployment.predicted_latency_ms = predictor.workflow_latency(plan);
    deployment.slo_met = deployment.predicted_latency_ms <= slo_ms;
    deployment.processes = plan.peak_stage_functions();
    deployment.plan = std::move(plan);
    predictor.publish_cache_metrics();
  } else {
    PgpConfig pgp_config;
    pgp_config.params = config_.params;
    pgp_config.mode = config_.mode;
    pgp_config.runtime = runtime;
    pgp_config.conservative_factor = config_.conservative_factor;
    pgp_config.use_kl = config_.use_kl;
    pgp_config.deploy_threads = config_.deploy_threads;
    pgp_config.prediction_cache = config_.prediction_cache;
    PgpScheduler scheduler(pgp_config, wf, behaviors);
    PgpResult result = scheduler.schedule(slo_ms);
    deployment.plan = std::move(result.plan);
    deployment.predicted_latency_ms = result.predicted_latency_ms;
    deployment.slo_met = result.slo_met;
    deployment.processes = result.processes;
    deployment.stats = result.stats;
  }

  // Steps 4-5: emit the deployable artifacts.
  {
    obs::ScopedSpan span(tracer, "codegen", "deploy");
    deployment.orchestrators = generate_orchestrators(wf, deployment.plan);
    deployment.stack_yaml = generate_stack_yaml(wf, deployment.plan);
  }

  record_deploy_metrics(deployment);
  if (tracer.enabled()) {
    tracer.instant("deploy.done", "deploy",
                   {{"predicted_latency_ms", deployment.predicted_latency_ms},
                    {"slo_met", deployment.slo_met ? 1.0 : 0.0},
                    {"processes", static_cast<double>(deployment.processes)}});
  }
  return deployment;
}

DynamicDeployment Chiron::deploy_dynamic(const BranchingWorkflow& wf,
                                         TimeMs slo_ms) {
  wf.validate();
  DynamicDeployment dynamic;
  std::vector<double> latencies;
  dynamic.slo_met = true;
  for (std::size_t i = 0; i < wf.branch_count(); ++i) {
    Deployment d = deploy(wf.resolve(i), slo_ms);
    dynamic.slo_met = dynamic.slo_met && d.slo_met;
    dynamic.worst_case_latency_ms =
        std::max(dynamic.worst_case_latency_ms, d.predicted_latency_ms);
    latencies.push_back(d.predicted_latency_ms);
    dynamic.variants.push_back(std::move(d));
  }
  dynamic.expected_latency_ms = wf.expected(latencies);
  return dynamic;
}

}  // namespace chiron
