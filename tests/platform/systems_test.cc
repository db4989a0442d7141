#include "platform/systems.h"

#include <gtest/gtest.h>

#include <cmath>

#include "workflow/benchmarks.h"

namespace chiron {
namespace {

SystemOptions quiet_options() {
  SystemOptions opts;
  opts.noise.jitter_sigma = 0.0;
  opts.noise.thread_contention = 0.0;
  opts.noise.run_sigma = 0.0;
  return opts;
}

TEST(SystemsTest, UnknownSystemThrows) {
  EXPECT_THROW(make_system("Nope", make_finra(5), quiet_options()),
               std::invalid_argument);
}

TEST(SystemsTest, AllFig13SystemsConstructAndRun) {
  const Workflow wf = make_finra(5);
  const SystemOptions opts = quiet_options();
  for (const std::string& name : fig13_systems()) {
    const auto backend = make_system(name, wf, opts);
    ASSERT_NE(backend, nullptr) << name;
    EXPECT_EQ(backend->name(), name);
    Rng rng(1);
    const RunResult result = backend->run(rng);
    EXPECT_GT(result.e2e_latency_ms, 0.0) << name;
    EXPECT_TRUE(std::isfinite(result.e2e_latency_ms)) << name;
  }
}

TEST(SystemsTest, SfiVariantsRunAndCostMoreThanMpk) {
  // Table 1: SFI's startup/interaction/execution overheads all exceed
  // MPK's, so the -S systems are strictly slower than their -M twins on
  // workflows with thread-executed (sequential) functions.
  const Workflow wf = make_social_network();
  const SystemOptions opts = quiet_options();
  Rng r1(21), r2(21);
  const TimeMs sfi =
      make_system("Faastlane-S", wf, opts)->mean_latency(r1, 5);
  const TimeMs mpk =
      make_system("Faastlane-M", wf, opts)->mean_latency(r2, 5);
  EXPECT_GT(sfi, mpk);
  Rng r3(22);
  EXPECT_GT(make_system("Chiron-S", wf, opts)->mean_latency(r3, 5), 0.0);
}

TEST(SystemsTest, DefaultSloIsFaastlanePlusSlack) {
  const Workflow wf = make_finra(25);
  const SystemOptions opts = quiet_options();
  const TimeMs slo = default_slo(wf, opts);
  const auto faastlane = make_system("Faastlane", wf, opts);
  Rng rng(2);
  const TimeMs faastlane_latency = faastlane->mean_latency(rng, 5);
  EXPECT_NEAR(slo, faastlane_latency + 10.0, faastlane_latency * 0.05 + 1.0);
}

TEST(SystemsTest, ChironMeetsItsDefaultSloOnAverage) {
  const Workflow wf = make_finra(25);
  const SystemOptions opts = quiet_options();
  const TimeMs slo = default_slo(wf, opts);
  const auto chiron = make_system("Chiron", wf, opts);
  Rng rng(3);
  EXPECT_LE(chiron->mean_latency(rng, 10), slo * 1.02);
}

TEST(SystemsTest, ChironUsesFewerResourcesThanFaastlane) {
  const Workflow wf = make_finra(50);
  const SystemOptions opts = quiet_options();
  const auto chiron = make_system("Chiron", wf, opts);
  const auto faastlane = make_system("Faastlane", wf, opts);
  const ResourceUsage rc = chiron->resources();
  const ResourceUsage rf = faastlane->resources();
  EXPECT_LT(rc.cpus, rf.cpus);
  EXPECT_LT(rc.memory_mb, rf.memory_mb);
}

TEST(SystemsTest, ChironThroughputBeatsOthers) {
  // The headline claim: 1.3x-21.8x system throughput.
  const Workflow wf = make_finra(50);
  const SystemOptions opts = quiet_options();
  Rng rng(4);
  const SystemEval chiron =
      evaluate_system(*make_system("Chiron", wf, opts), opts.params, rng, 5);
  for (const char* name : {"OpenFaaS", "SAND", "Faastlane"}) {
    Rng r(5);
    const SystemEval other =
        evaluate_system(*make_system(name, wf, opts), opts.params, r, 5);
    EXPECT_GT(chiron.throughput_rps, 1.3 * other.throughput_rps) << name;
  }
}

TEST(SystemsTest, EvaluateSystemPopulatesAllMetrics) {
  const Workflow wf = make_slapp();
  const SystemOptions opts = quiet_options();
  Rng rng(6);
  const SystemEval eval =
      evaluate_system(*make_system("Faastlane", wf, opts), opts.params, rng, 3);
  EXPECT_EQ(eval.system, "Faastlane");
  EXPECT_GT(eval.mean_latency_ms, 0.0);
  EXPECT_GT(eval.usage.memory_mb, 0.0);
  EXPECT_GT(eval.throughput_rps, 0.0);
  EXPECT_GT(eval.cost_per_million_usd, 0.0);
}

TEST(SystemsTest, AsfCostsFarMoreThanSelfHosted) {
  // Fig. 19: per-transition billing dwarfs resource-seconds.
  const Workflow wf = make_social_network();
  const SystemOptions opts = quiet_options();
  Rng r1(7), r2(7);
  const SystemEval asf =
      evaluate_system(*make_system("ASF", wf, opts), opts.params, r1, 3);
  const SystemEval chiron =
      evaluate_system(*make_system("Chiron", wf, opts), opts.params, r2, 3);
  EXPECT_GT(asf.cost_per_million_usd, 20.0 * chiron.cost_per_million_usd);
}

TEST(SystemsTest, ExplicitSloIsHonoured) {
  const Workflow wf = make_finra(25);
  SystemOptions opts = quiet_options();
  opts.slo_ms = 1000.0;
  const auto chiron = make_system("Chiron", wf, opts);
  Rng rng(8);
  EXPECT_LE(chiron->run(rng).e2e_latency_ms, 1000.0);
}

// Property sweep over the full benchmark suite: every system runs every
// workflow and Chiron's latency never exceeds the one-to-one baseline.
class SuiteSweep : public ::testing::TestWithParam<int> {};

TEST_P(SuiteSweep, ChironBeatsOpenFaasEverywhere) {
  const Workflow wf = evaluation_suite()[GetParam()];
  if (wf.function_count() > 60) GTEST_SKIP() << "large case covered in bench";
  const SystemOptions opts = quiet_options();
  Rng r1(9), r2(9);
  const TimeMs chiron =
      make_system("Chiron", wf, opts)->mean_latency(r1, 3);
  const TimeMs openfaas =
      make_system("OpenFaaS", wf, opts)->mean_latency(r2, 3);
  EXPECT_LT(chiron, openfaas) << wf.name();
}

INSTANTIATE_TEST_SUITE_P(Workflows, SuiteSweep, ::testing::Range(0, 6));

}  // namespace
}  // namespace chiron
