#include "core/chiron.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/json.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "platform/plan_backend.h"
#include "workflow/benchmarks.h"

namespace chiron {
namespace {

TEST(ChironTest, RejectsNonPositiveSlo) {
  Chiron manager(ChironConfig{});
  EXPECT_THROW(manager.deploy(make_finra(5), 0.0), std::invalid_argument);
}

TEST(ChironTest, DeploymentIsComplete) {
  Chiron manager(ChironConfig{});
  const Workflow wf = make_social_network();
  const Deployment d = manager.deploy(wf, 200.0);
  EXPECT_NO_THROW(d.plan.validate(wf));
  EXPECT_EQ(d.profiles.size(), wf.function_count());
  EXPECT_FALSE(d.orchestrators.empty());
  EXPECT_FALSE(d.stack_yaml.empty());
  EXPECT_GT(d.predicted_latency_ms, 0.0);
}

TEST(ChironTest, MeetsReasonableSlo) {
  Chiron manager(ChironConfig{});
  const Deployment d = manager.deploy(make_finra(25), 500.0);
  EXPECT_TRUE(d.slo_met);
  EXPECT_LE(d.predicted_latency_ms, 500.0);
}

TEST(ChironTest, PoolModeUsesSingleWrapPerStage) {
  ChironConfig config;
  config.mode = IsolationMode::kPool;
  Chiron manager(config);
  const Workflow wf = make_finra(10);
  const Deployment d = manager.deploy(wf, 500.0);
  EXPECT_EQ(d.plan.mode, IsolationMode::kPool);
  for (const StagePlan& sp : d.plan.stages) {
    EXPECT_EQ(sp.wrap_count(), 1u);
  }
}

TEST(ChironTest, PoolModeMinimisesCpus) {
  ChironConfig config;
  config.mode = IsolationMode::kPool;
  Chiron manager(config);
  const Deployment d = manager.deploy(make_finra(20), 5000.0);
  // With 20 parallel 2-4 ms rules and a huge SLO, far fewer CPUs than
  // workers suffice.
  EXPECT_LT(d.plan.allocated_cpus(), 20u);
}

TEST(ChironTest, MpkModePropagatesToPlan) {
  ChironConfig config;
  config.mode = IsolationMode::kMpk;
  Chiron manager(config);
  const Deployment d = manager.deploy(make_slapp(), 500.0);
  EXPECT_EQ(d.plan.mode, IsolationMode::kMpk);
}

TEST(ChironTest, DeterministicForSameSeed) {
  ChironConfig config;
  config.seed = 77;
  Chiron a(config), b(config);
  const Workflow wf = make_slapp_v();
  const Deployment da = a.deploy(wf, 300.0);
  const Deployment db = b.deploy(wf, 300.0);
  EXPECT_DOUBLE_EQ(da.predicted_latency_ms, db.predicted_latency_ms);
  EXPECT_EQ(da.plan.sandbox_count(), db.plan.sandbox_count());
  EXPECT_EQ(da.plan.allocated_cpus(), db.plan.allocated_cpus());
}

TEST(ChironTest, TighterSloNeverAllocatesFewerCpus) {
  Chiron manager(ChironConfig{});
  const Workflow wf = make_finra(50);
  const Deployment loose = manager.deploy(wf, 5000.0);
  Chiron manager2(ChironConfig{});
  const Deployment tight = manager2.deploy(wf, 170.0);
  EXPECT_GE(tight.plan.allocated_cpus(), loose.plan.allocated_cpus());
}

TEST(ChironTest, JavaWorkflowDeploys) {
  Chiron manager(ChironConfig{});
  const Workflow wf = as_java(make_slapp());
  const Deployment d = manager.deploy(wf, 500.0);
  EXPECT_NO_THROW(d.plan.validate(wf));
}

// --- SLO degradation: monitor, inflated replan, one-to-one fallback --------

TEST(SloMonitorTest, SlidingWindowFailureRate) {
  SloMonitorConfig config;
  config.window = 10;
  config.min_samples = 5;
  SloMonitor monitor(config);
  for (int i = 0; i < 10; ++i) monitor.record(10.0, /*ok=*/false);
  EXPECT_DOUBLE_EQ(monitor.failure_rate(), 1.0);
  // Ten healthy records push every failure out of the window.
  for (int i = 0; i < 10; ++i) monitor.record(10.0, /*ok=*/true);
  EXPECT_EQ(monitor.samples(), 10u);
  EXPECT_DOUBLE_EQ(monitor.failure_rate(), 0.0);
}

TEST(SloMonitorTest, NoVerdictBeforeWarmup) {
  SloMonitorConfig config;
  config.min_samples = 20;
  SloMonitor monitor(config);
  for (int i = 0; i < 19; ++i) monitor.record(1e6, /*ok=*/false);
  EXPECT_FALSE(monitor.violated(1.0));  // egregious, but not warmed up
  monitor.record(1e6, /*ok=*/false);
  EXPECT_TRUE(monitor.violated(1.0));
}

TEST(SloMonitorTest, P95IgnoresFailedSamples) {
  SloMonitorConfig config;
  config.min_samples = 1;
  SloMonitor monitor(config);
  for (int i = 1; i <= 100; ++i) {
    monitor.record(static_cast<double>(i), /*ok=*/true);
  }
  monitor.record(1e9, /*ok=*/false);  // failed latencies carry no signal
  EXPECT_NEAR(monitor.p95_ms(), 95.0, 1.0);
}

TEST(SloMonitorTest, ViolatedOnLatencyOrFailures) {
  SloMonitorConfig config;
  config.min_samples = 10;
  config.max_failure_rate = 0.2;
  SloMonitor latency_breach(config);
  for (int i = 0; i < 50; ++i) latency_breach.record(100.0, true);
  EXPECT_TRUE(latency_breach.violated(50.0));
  EXPECT_FALSE(latency_breach.violated(150.0));
  SloMonitor failure_breach(config);
  for (int i = 0; i < 50; ++i) failure_breach.record(1.0, i % 3 != 0);
  EXPECT_GT(failure_breach.failure_rate(), 0.2);
  EXPECT_TRUE(failure_breach.violated(1e9));  // latency fine, failures not
}

TEST(ChironDegradationTest, UnitInflationMatchesPlainDeploy) {
  // deploy_degraded(inflation = 1, no fallback) must be the plain deploy
  // path bit-for-bit — the degradation layer adds nothing when disarmed.
  ChironConfig config;
  config.seed = 31;
  Chiron plain(config), degraded(config);
  const Workflow wf = make_slapp();
  const Deployment a = plain.deploy(wf, 300.0);
  const Deployment b = degraded.deploy_degraded(wf, 300.0, 1.0);
  EXPECT_DOUBLE_EQ(a.predicted_latency_ms, b.predicted_latency_ms);
  EXPECT_EQ(a.plan.sandbox_count(), b.plan.sandbox_count());
  EXPECT_EQ(a.plan.allocated_cpus(), b.plan.allocated_cpus());
  EXPECT_FALSE(b.degraded);
  EXPECT_FALSE(b.fell_back_one_to_one);
  EXPECT_DOUBLE_EQ(b.profile_inflation, 1.0);
}

TEST(ChironDegradationTest, RejectsDeflation) {
  Chiron manager(ChironConfig{});
  EXPECT_THROW(manager.deploy_degraded(make_slapp(), 300.0, 0.5),
               std::invalid_argument);
}

TEST(ChironDegradationTest, InflationRaisesThePredictedLatency) {
  const Workflow wf = make_slapp();
  Chiron a(ChironConfig{}), b(ChironConfig{});
  const Deployment healthy = a.deploy(wf, 1e6);
  const Deployment inflated = b.deploy_degraded(wf, 1e6, 3.0);
  EXPECT_TRUE(inflated.degraded);
  EXPECT_DOUBLE_EQ(inflated.profile_inflation, 3.0);
  EXPECT_GT(inflated.predicted_latency_ms,
            healthy.predicted_latency_ms * 2.0);
}

TEST(ChironDegradationTest, FallbackDeploysOneSandboxPerFunction) {
  const Workflow wf = make_slapp();
  Chiron manager(ChironConfig{});
  const Deployment d =
      manager.deploy_degraded(wf, 1e6, 1.0, /*force_one_to_one=*/true);
  EXPECT_TRUE(d.degraded);
  EXPECT_TRUE(d.fell_back_one_to_one);
  EXPECT_NO_THROW(d.plan.validate(wf));
  // One-to-one layout: every stage has one single-function wrap per
  // function — no sharing anywhere.
  ASSERT_EQ(d.plan.stages.size(), wf.stage_count());
  for (std::size_t s = 0; s < wf.stage_count(); ++s) {
    EXPECT_EQ(d.plan.stages[s].wrap_count(), wf.stages()[s].functions.size());
    for (const Wrap& w : d.plan.stages[s].wraps) {
      ASSERT_EQ(w.processes.size(), 1u);
      EXPECT_EQ(w.processes[0].functions.size(), 1u);
    }
  }
  EXPECT_GT(d.predicted_latency_ms, 0.0);
  EXPECT_FALSE(d.orchestrators.empty());
}

TEST(ChironDegradationTest, HealthyMonitorYieldsNoReplan) {
  const Workflow wf = make_slapp();
  Chiron manager(ChironConfig{});
  const Deployment d = manager.deploy(wf, 300.0);
  SloMonitor monitor;
  for (int i = 0; i < 100; ++i) monitor.record(50.0, true);
  EXPECT_FALSE(manager.replan_if_degraded(monitor, wf, 300.0, d).has_value());
}

TEST(ChironDegradationTest, HighFailureRateFallsBackToOneToOne) {
  const Workflow wf = make_slapp();
  Chiron manager(ChironConfig{});
  const Deployment d = manager.deploy(wf, 300.0);
  SloMonitor monitor;
  for (int i = 0; i < 100; ++i) monitor.record(50.0, i % 5 != 0);  // 20 % fail
  const auto replanned = manager.replan_if_degraded(monitor, wf, 300.0, d);
  ASSERT_TRUE(replanned.has_value());
  EXPECT_TRUE(replanned->fell_back_one_to_one);
  for (std::size_t s = 0; s < wf.stage_count(); ++s) {
    EXPECT_EQ(replanned->plan.stages[s].wrap_count(),
              wf.stages()[s].functions.size());
  }
}

TEST(ChironDegradationTest, StragglerStormIsRecoveredBelowTheSlo) {
  // The end-to-end acceptance scenario: a healthy plan sits near the SLO;
  // a straggler storm pushes observed p95 far above it; the monitor trips;
  // the inflated replan brings the *still-faulted* p95 back under the SLO,
  // with the degradation metrics exported.
  const Workflow wf = make_slapp();

  // Fastest achievable latency: an impossible SLO makes PGP spend freely.
  // The SLO sits at 6x that floor: loose enough that an inflated replan
  // (~1.3 x multiplier x floor ~= 5.2x) is still feasible, tight enough
  // that the storm's p95 (~4x the plan's real latency) breaches it.
  const TimeMs l_min =
      Chiron(ChironConfig{}).deploy(wf, 0.01).predicted_latency_ms;
  const TimeMs slo = 6.0 * l_min;

  Chiron manager(ChironConfig{});
  const Deployment initial = manager.deploy(wf, slo);
  ASSERT_TRUE(initial.slo_met);

  FaultSpec storm;
  storm.straggler = 0.3;
  storm.straggler_multiplier = 4.0;
  const FaultInjector injector(storm);
  const RuntimeParams params = RuntimeParams::defaults();

  // The serving engine's straggler rule: request i's latency is dilated
  // by the multiplier when its first attempt straggles.
  auto observe = [&](const Deployment& d, SloMonitor& monitor) {
    WrapPlanBackend backend("live", params, wf, d.plan, NoiseConfig{});
    Rng rng(17);
    for (int i = 0; i < 120; ++i) {
      TimeMs latency = backend.latency(rng);
      if (injector.straggles(static_cast<std::uint64_t>(i), 1)) {
        latency *= storm.straggler_multiplier;
      }
      monitor.record(latency, true);
    }
  };

  SloMonitor before;
  observe(initial, before);
  EXPECT_GT(before.p95_ms(), slo);  // the storm breaks the SLO
  ASSERT_TRUE(before.violated(slo));

  const std::int64_t replans_before =
      obs::MetricsRegistry::global().counter("chiron.degrade.replans").value();
  const auto replanned = manager.replan_if_degraded(before, wf, slo, initial);
  ASSERT_TRUE(replanned.has_value());
  EXPECT_TRUE(replanned->degraded);
  EXPECT_FALSE(replanned->fell_back_one_to_one);
  EXPECT_GT(replanned->profile_inflation, storm.straggler_multiplier);
  EXPECT_EQ(
      obs::MetricsRegistry::global().counter("chiron.degrade.replans").value(),
      replans_before + 1);
  // The published inflation is the observed slowdown times the published
  // safety margin, clamped to [1, 32].
  const double margin = obs::MetricsRegistry::global()
                            .gauge("chiron.degrade.safety_margin")
                            .value();
  EXPECT_DOUBLE_EQ(margin, 1.3);
  const double slowdown = before.p95_ms() / initial.predicted_latency_ms;
  const double inflation =
      obs::MetricsRegistry::global().gauge("chiron.degrade.inflation").value();
  EXPECT_DOUBLE_EQ(inflation, std::clamp(slowdown * margin, 1.0, 32.0));
  EXPECT_DOUBLE_EQ(replanned->profile_inflation, inflation);

  SloMonitor after;
  observe(*replanned, after);
  EXPECT_LE(after.p95_ms(), slo);  // recovered despite the ongoing storm
  EXPECT_FALSE(after.violated(slo));
}

TEST(ChironDegradationTest, SloBreachAutoDumpsTheFlightRecorder) {
  // An SLO breach must leave a post-hoc artifact without anyone asking:
  // the armed flight recorder dumps itself when replan_if_degraded trips.
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "chiron_breach_dump.json";
  std::filesystem::remove(path);
  obs::FlightRecorder& rec = obs::FlightRecorder::global();
  rec.clear();
  rec.set_enabled(true);
  rec.arm_auto_dump(path.string());
  const std::uint64_t dumps_before = rec.auto_dumps();
  const std::int64_t breaches_before =
      obs::MetricsRegistry::global().counter("chiron.slo.breaches").value();

  const Workflow wf = make_slapp();
  Chiron manager(ChironConfig{});
  const Deployment d = manager.deploy(wf, 300.0);
  SloMonitor monitor;
  for (int i = 0; i < 100; ++i) monitor.record(50.0, i % 5 != 0);  // breach
  const auto replanned = manager.replan_if_degraded(monitor, wf, 300.0, d);
  ASSERT_TRUE(replanned.has_value());

  EXPECT_EQ(rec.auto_dumps(), dumps_before + 1);
  EXPECT_EQ(
      obs::MetricsRegistry::global().counter("chiron.slo.breaches").value(),
      breaches_before + 1);
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "breach dump missing at " << path;
  std::ostringstream text;
  text << in.rdbuf();
  const json::Value doc = json::parse(text.str());
  bool saw_breach = false;
  for (const json::Value& ev : doc.at("events").as_array()) {
    if (ev.at("kind").as_string() == "slo.breach") saw_breach = true;
  }
  EXPECT_TRUE(saw_breach);

  rec.set_enabled(false);
  rec.arm_auto_dump("");  // disarm for later tests
  rec.clear();
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace chiron
