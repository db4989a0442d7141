#include "harness.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"

namespace chiron::bench {
namespace {

json::Value load_json(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return json::parse(text.str());
}

// Exact 1, lgN, N, NlgN, N^2 and N^3 series over every size range the
// suites use: the fit names each one.
TEST(HarnessFitTest, NamesEachExactCurve) {
  struct Curve {
    const char* label;
    double (*g)(double);
  };
  const Curve curves[] = {
      {"(1)", [](double) { return 1.0; }},
      {"lgN", [](double x) { return std::log2(x); }},
      {"N", [](double x) { return x; }},
      {"NlgN", [](double x) { return x * std::log2(x); }},
      {"N^2", [](double x) { return x * x; }},
      {"N^3", [](double x) { return x * x * x; }},
  };
  for (const std::vector<double>& n :
       {std::vector<double>{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096},
        std::vector<double>{8, 16, 32, 64, 128, 256, 512},
        std::vector<double>{1024, 4096, 16384, 65536},
        std::vector<double>{65536, 262144, 1048576},
        std::vector<double>{5, 25, 50, 100, 200}}) {
    for (const Curve& curve : curves) {
      std::vector<double> cpu, real;
      for (double x : n) {
        cpu.push_back(3.0 * curve.g(x));
        real.push_back(5.0 * curve.g(x));
      }
      const BigO fit = fit_big_o(n, cpu, real);
      EXPECT_EQ(fit.label, curve.label) << "sizes from " << n.front();
      EXPECT_NEAR(fit.cpu_coefficient, 3.0, 1e-9);
      EXPECT_NEAR(fit.real_coefficient, 5.0, 1e-9);
    }
  }
}

// The label comes from CPU time; wall time only gets a coefficient on the
// same curve, even when on its own it would fit another.
TEST(HarnessFitTest, WallTimeReusesTheCpuCurve) {
  const std::vector<double> n = {8, 16, 32, 64, 128, 256, 512};
  std::vector<double> cpu, real;
  for (double x : n) {
    cpu.push_back(2.0 * x);
    real.push_back(x * x);
  }
  const BigO fit = fit_big_o(n, cpu, real);
  EXPECT_EQ(fit.label, "N");
  double tg = 0.0, gg = 0.0;
  for (double x : n) {
    tg += x * x * x;
    gg += x * x;
  }
  EXPECT_DOUBLE_EQ(fit.real_coefficient, tg / gg);
}

// tests/scripts/bench_deploy_legacy.json holds ten _BigO rows that
// google-benchmark fitted from the per-size rows beside them. Fed those
// per-size times (ms-unit families scaled to ns), the in-tree fit
// reproduces every label and both coefficients.
TEST(HarnessFitTest, ReproducesGoogleBenchmarkLegacyFits) {
  const json::Value legacy = load_json(CHIRON_LEGACY_BENCH_JSON);
  int families = 0;
  for (const auto& [suite, doc] : legacy.as_object()) {
    if (suite.rfind("micro_", 0) != 0) continue;
    const json::Array& rows = doc.at("benchmarks").as_array();
    for (const json::Value& big_o : rows) {
      if (big_o.string_or("aggregate_name", "") != "BigO") continue;
      std::vector<double> n, cpu, real;
      for (const json::Value& row : rows) {
        if (row.at("run_type").as_string() != "iteration" ||
            row.at("family_index").as_number() !=
                big_o.at("family_index").as_number()) {
          continue;
        }
        std::stringstream parts(row.at("name").as_string());
        std::string part;
        while (std::getline(parts, part, '/')) {
          if (part.find_first_not_of("0123456789") == std::string::npos) {
            n.push_back(std::stod(part));
          }
        }
        const std::string unit = row.at("time_unit").as_string();
        const double scale = unit == "ms" ? 1e6 : unit == "us" ? 1e3 : 1.0;
        cpu.push_back(row.at("cpu_time").as_number() * scale);
        real.push_back(row.at("real_time").as_number() * scale);
      }
      ASSERT_EQ(n.size(), cpu.size()) << big_o.at("name").as_string();
      const BigO fit = fit_big_o(n, cpu, real);
      const std::string name = big_o.at("name").as_string();
      EXPECT_EQ(fit.label, big_o.at("big_o").as_string()) << name;
      const double want_cpu = big_o.at("cpu_coefficient").as_number();
      const double want_real = big_o.at("real_coefficient").as_number();
      EXPECT_NEAR(fit.cpu_coefficient, want_cpu, 1e-12 * want_cpu) << name;
      EXPECT_NEAR(fit.real_coefficient, want_real, 1e-12 * want_real) << name;
      ++families;
    }
  }
  EXPECT_EQ(families, 10);
}

const bool registered = RegisterBenchmark(
    "BM_HarnessTestSum",
    [](std::int64_t n) {
      return Timed{[n] {
                     std::int64_t sum = 0;
                     for (std::int64_t i = 0; i < n; ++i) sum += i;
                     do_not_optimize(sum);
                   },
                   [n] { return Counters{{"size", static_cast<double>(n)}}; }};
    },
    {{8, 64}});

struct Outcome {
  int code;
  std::string err;
};

Outcome run(std::vector<std::string> args) {
  args.insert(args.begin(), "bench_micro_test");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  testing::internal::CaptureStderr();
  const int code = run_main(static_cast<int>(argv.size()), argv.data());
  return {code, testing::internal::GetCapturedStderr()};
}

// Each malformed input exits non-zero with a message naming the problem.
TEST(HarnessFlagsTest, MalformedInputFailsLoudly) {
  ASSERT_TRUE(registered);
  const std::string unwritable = (std::filesystem::path(testing::TempDir()) /
                                  "no-such-dir" / "out.json")
                                     .string();
  const std::pair<std::vector<std::string>, std::string> cases[] = {
      {{"--benchmark_format=json"}, "unknown flag '--benchmark_format=json'"},
      {{"--benchmark_color"}, "unknown flag '--benchmark_color'"},
      {{"BM_HarnessTestSum"}, "unknown flag 'BM_HarnessTestSum'"},
      {{"--benchmark_min_time=fast"},
       "--benchmark_min_time needs a number, got 'fast'"},
      {{"--benchmark_min_time=0.5s"},
       "--benchmark_min_time needs a number, got '0.5s'"},
      {{"--benchmark_min_time=-1"}, "--benchmark_min_time must be >= 0"},
      {{"--benchmark_repetitions=0"}, "--benchmark_repetitions must be >= 1"},
      {{"--benchmark_repetitions=2.5"},
       "--benchmark_repetitions must be a whole number"},
      {{"--benchmark_report_aggregates_only=yes"}, "must be true or false"},
      {{"--benchmark_filter=("}, "--benchmark_filter is not a regex"},
      {{"--benchmark_filter=BM_NoSuchEntry"},
       "--benchmark_filter=BM_NoSuchEntry matches no benchmark"},
      {{"--benchmark_filter=BM_HarnessTestSum", "--benchmark_min_time=0",
        "--benchmark_out=" + unwritable},
       "cannot write --benchmark_out=" + unwritable},
  };
  for (const auto& [args, message] : cases) {
    const Outcome outcome = run(args);
    EXPECT_EQ(outcome.code, 2) << args.front();
    EXPECT_NE(outcome.err.find(message), std::string::npos)
        << args.front() << " printed: " << outcome.err;
  }
}

// A repeated, aggregates-only run writes the rows scripts/bench_guard.py
// indexes: per-size mean/median/stddev with counters, a BigO row for the
// family, and the context it reads the build type from.
TEST(HarnessRunTest, WritesTheShapeBenchGuardReads) {
  ASSERT_TRUE(registered);
  const std::string out =
      (std::filesystem::path(testing::TempDir()) / "harness_run.json")
          .string();
  const Outcome outcome =
      run({"--benchmark_filter=BM_HarnessTestSum", "--benchmark_min_time=0",
           "--benchmark_repetitions=3",
           "--benchmark_report_aggregates_only=true", "--benchmark_out=" + out});
  ASSERT_EQ(outcome.code, 0) << outcome.err;
  const json::Value doc = load_json(out);
  std::filesystem::remove(out);
  const json::Value& context = doc.at("context");
#ifdef NDEBUG
  EXPECT_EQ(context.at("library_build_type").as_string(), "release");
#else
  EXPECT_EQ(context.at("library_build_type").as_string(), "debug");
#endif
  EXPECT_GE(context.at("num_cpus").as_number(), 1.0);
  EXPECT_TRUE(context.contains("load_avg_1min"));
  std::vector<std::string> names;
  for (const json::Value& row : doc.at("benchmarks").as_array()) {
    names.push_back(row.at("name").as_string());
    if (row.at("aggregate_name").as_string() == "BigO") {
      EXPECT_EQ(row.at("run_name").as_string(), "BM_HarnessTestSum");
      EXPECT_TRUE(row.contains("big_o"));
      EXPECT_TRUE(row.at("cpu_coefficient").is_number());
      EXPECT_TRUE(row.at("real_coefficient").is_number());
      continue;
    }
    EXPECT_EQ(row.at("run_type").as_string(), "aggregate");
    EXPECT_EQ(row.at("time_unit").as_string(), "ns");
    EXPECT_GE(row.at("real_time").as_number(), 0.0);
    EXPECT_GE(row.at("cpu_time").as_number(), 0.0);
    const std::string& run_name = row.at("run_name").as_string();
    if (row.at("aggregate_name").as_string() != "stddev") {
      EXPECT_EQ(row.at("size").as_number(),
                run_name == "BM_HarnessTestSum/8" ? 8.0 : 64.0);
    }
  }
  EXPECT_EQ(names, (std::vector<std::string>{
                       "BM_HarnessTestSum/8_mean",
                       "BM_HarnessTestSum/8_median",
                       "BM_HarnessTestSum/8_stddev",
                       "BM_HarnessTestSum/64_mean",
                       "BM_HarnessTestSum/64_median",
                       "BM_HarnessTestSum/64_stddev",
                       "BM_HarnessTestSum_BigO",
                   }));
}

// Repetition r of every selected instance runs before repetition r + 1,
// so a paired guard compares repetitions taken side by side. At
// min_time 0 each repetition calls the body once.
TEST(HarnessRunTest, RepetitionsInterleaveAcrossInstances) {
  static std::vector<std::int64_t> order;
  static const bool ordered = RegisterBenchmark(
      "BM_HarnessTestOrder",
      [](std::int64_t n) { return Timed{[n] { order.push_back(n); }}; },
      {{8, 64}});
  ASSERT_TRUE(ordered);
  const std::string out =
      (std::filesystem::path(testing::TempDir()) / "harness_order.json")
          .string();
  const Outcome outcome =
      run({"--benchmark_filter=BM_HarnessTestOrder", "--benchmark_min_time=0",
           "--benchmark_repetitions=3", "--benchmark_out=" + out});
  std::filesystem::remove(out);
  ASSERT_EQ(outcome.code, 0) << outcome.err;
  EXPECT_EQ(order, (std::vector<std::int64_t>{8, 64, 8, 64, 8, 64}));
}

}  // namespace
}  // namespace chiron::bench
