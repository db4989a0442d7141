#include "fault/fault.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

namespace chiron {
namespace {

TEST(FaultSpecTest, DefaultIsHealthy) {
  const FaultSpec spec;
  EXPECT_FALSE(spec.enabled());
  const FaultInjector injector(spec);
  EXPECT_FALSE(injector.enabled());
  // A disabled injector never fires, whatever the decision cell.
  for (std::uint64_t e = 0; e < 50; ++e) {
    EXPECT_FALSE(injector.cold_start_fails(e, 1));
    EXPECT_FALSE(injector.crashes(e, 1));
    EXPECT_FALSE(injector.straggles(e, 1));
    EXPECT_FALSE(injector.node_crashes(e));
  }
}

TEST(FaultSpecTest, AnyNonZeroKindEnables) {
  FaultSpec spec;
  spec.crash = 0.01;
  EXPECT_TRUE(spec.enabled());
  spec = FaultSpec{};
  spec.straggler = 0.5;
  EXPECT_TRUE(spec.enabled());
}

TEST(FaultInjectorTest, RollIsDeterministicPerCell) {
  FaultSpec spec;
  spec.straggler = 0.3;
  spec.seed = 42;
  const FaultInjector a(spec);
  const FaultInjector b(spec);
  for (std::uint64_t e = 0; e < 100; ++e) {
    for (std::uint64_t attempt = 1; attempt <= 3; ++attempt) {
      EXPECT_DOUBLE_EQ(a.roll(FaultKind::kStraggler, e, attempt),
                       b.roll(FaultKind::kStraggler, e, attempt));
    }
  }
}

TEST(FaultInjectorTest, CellsAreIndependent) {
  FaultSpec spec;
  spec.seed = 7;
  const FaultInjector inj(spec);
  std::set<double> rolls;
  for (std::uint64_t e = 0; e < 20; ++e) {
    for (std::uint64_t attempt = 1; attempt <= 3; ++attempt) {
      for (FaultKind kind : {FaultKind::kColdStart, FaultKind::kCrash,
                             FaultKind::kStraggler, FaultKind::kNodeCrash}) {
        const double u = inj.roll(kind, e, attempt);
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        rolls.insert(u);
      }
    }
  }
  // 240 distinct cells should yield 240 distinct uniforms.
  EXPECT_EQ(rolls.size(), 240u);
}

TEST(FaultInjectorTest, SeedChangesDecisions) {
  FaultSpec a_spec;
  a_spec.crash = 0.5;
  a_spec.seed = 1;
  FaultSpec b_spec = a_spec;
  b_spec.seed = 2;
  const FaultInjector a(a_spec);
  const FaultInjector b(b_spec);
  int differing = 0;
  for (std::uint64_t e = 0; e < 200; ++e) {
    if (a.crashes(e, 1) != b.crashes(e, 1)) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultInjectorTest, RateMatchesProbability) {
  FaultSpec spec;
  spec.crash = 0.2;
  const FaultInjector inj(spec);
  int fired = 0;
  const int n = 10000;
  for (int e = 0; e < n; ++e) {
    if (inj.crashes(static_cast<std::uint64_t>(e), 1)) ++fired;
  }
  const double rate = static_cast<double>(fired) / n;
  EXPECT_NEAR(rate, 0.2, 0.02);
}

TEST(RetryPolicyTest, BackoffIsCappedExponential) {
  RetryPolicy policy;
  policy.base_backoff_ms = 10.0;
  policy.max_backoff_ms = 100.0;
  policy.jitter = 0.0;
  EXPECT_DOUBLE_EQ(policy.backoff_ms(1, 0.5), 10.0);
  EXPECT_DOUBLE_EQ(policy.backoff_ms(2, 0.5), 20.0);
  EXPECT_DOUBLE_EQ(policy.backoff_ms(3, 0.5), 40.0);
  EXPECT_DOUBLE_EQ(policy.backoff_ms(4, 0.5), 80.0);
  EXPECT_DOUBLE_EQ(policy.backoff_ms(5, 0.5), 100.0);  // capped
  EXPECT_DOUBLE_EQ(policy.backoff_ms(60, 0.5), 100.0);  // no overflow
}

TEST(RetryPolicyTest, JitterStaysInBounds) {
  RetryPolicy policy;
  policy.base_backoff_ms = 10.0;
  policy.max_backoff_ms = 10000.0;
  policy.jitter = 0.2;
  FaultSpec spec;
  spec.seed = 3;
  const FaultInjector inj(spec);
  for (std::uint64_t e = 0; e < 200; ++e) {
    const TimeMs b = inj.retry_backoff_ms(policy, 1, e);
    EXPECT_GE(b, 10.0 * 0.8);
    EXPECT_LE(b, 10.0 * 1.2);
  }
}

TEST(FaultSpecTest, ParseRoundTrips) {
  const FaultSpec spec = parse_fault_spec(
      "cold=0.1,crash=0.05@0.3,straggler=0.2x4,node=0.2,seed=7");
  EXPECT_DOUBLE_EQ(spec.cold_start_failure, 0.1);
  EXPECT_DOUBLE_EQ(spec.crash, 0.05);
  EXPECT_DOUBLE_EQ(spec.crash_point, 0.3);
  EXPECT_DOUBLE_EQ(spec.straggler, 0.2);
  EXPECT_DOUBLE_EQ(spec.straggler_multiplier, 4.0);
  EXPECT_DOUBLE_EQ(spec.node_crash, 0.2);
  EXPECT_EQ(spec.seed, 7u);

  const FaultSpec again = parse_fault_spec(to_string(spec));
  EXPECT_DOUBLE_EQ(again.cold_start_failure, spec.cold_start_failure);
  EXPECT_DOUBLE_EQ(again.crash, spec.crash);
  EXPECT_DOUBLE_EQ(again.crash_point, spec.crash_point);
  EXPECT_DOUBLE_EQ(again.straggler, spec.straggler);
  EXPECT_DOUBLE_EQ(again.straggler_multiplier, spec.straggler_multiplier);
  EXPECT_DOUBLE_EQ(again.node_crash, spec.node_crash);
  EXPECT_EQ(again.seed, spec.seed);
}

TEST(FaultSpecTest, ParseRejectsMalformedInput) {
  EXPECT_THROW(parse_fault_spec("bogus=0.1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("cold"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("cold=1.5"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("crash=0.1@1.5"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("straggler=0.1x0.5"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("cold=-0.1"), std::invalid_argument);
  // The fault spec has no transfer kind.
  EXPECT_THROW(parse_fault_spec("transfer=0.1"), std::invalid_argument);
}

TEST(FaultSpecTest, ParseRejectsNonFiniteAndPartialValues) {
  for (const char* bad :
       {"straggler=0.5xnan", "straggler=0.5xinf", "straggler=0.5x4junk",
        "straggler=0.5x", "cold=nan", "node=inf", "crash=0.1@nan",
        "node=-nan", "cold=", "cold= 0.1", "cold=0.1 ", "cold=1e999",
        "seed=-1", "seed=+7", "seed=7abc", "seed= 7", "seed=",
        "seed=18446744073709551616"}) {
    EXPECT_THROW(parse_fault_spec(bad), std::invalid_argument) << bad;
  }
}

TEST(FaultSpecTest, ParseAcceptsBoundaryValues) {
  const FaultSpec spec = parse_fault_spec(
      "cold=0,crash=1@0,straggler=1e-3x1,seed=18446744073709551615");
  EXPECT_EQ(spec.cold_start_failure, 0.0);
  EXPECT_EQ(spec.crash, 1.0);
  EXPECT_EQ(spec.crash_point, 0.0);
  EXPECT_EQ(spec.straggler, 1e-3);
  EXPECT_EQ(spec.straggler_multiplier, 1.0);
  EXPECT_EQ(spec.seed, 18446744073709551615ull);
}

TEST(FaultSpecTest, ToStringOmitsDisabledKinds) {
  FaultSpec spec;
  spec.crash = 0.25;
  const std::string text = to_string(spec);
  EXPECT_NE(text.find("crash"), std::string::npos);
  EXPECT_EQ(text.find("cold"), std::string::npos);
  EXPECT_EQ(text.find("straggler"), std::string::npos);
  EXPECT_EQ(text.find("node"), std::string::npos);
}

TEST(FaultKindTest, NamesAreStable) {
  EXPECT_STREQ(to_string(FaultKind::kColdStart), "cold_start");
  EXPECT_STREQ(to_string(FaultKind::kCrash), "crash");
  EXPECT_STREQ(to_string(FaultKind::kStraggler), "straggler");
  EXPECT_STREQ(to_string(FaultKind::kNodeCrash), "node_crash");
  // kRetryJitter names a decision stream, not a fault: it has no
  // recorder event kind.
  EXPECT_STREQ(to_string(FaultKind::kRetryJitter), "retry_jitter");
  EXPECT_THROW(rec_kind(FaultKind::kRetryJitter), std::logic_error);
}

TEST(FaultSpecTest, NodeCrashParsesEnablesAndRoundTrips) {
  const FaultSpec spec = parse_fault_spec("node=0.2,seed=11");
  EXPECT_DOUBLE_EQ(spec.node_crash, 0.2);
  EXPECT_TRUE(spec.enabled());
  const FaultSpec again = parse_fault_spec(to_string(spec));
  EXPECT_DOUBLE_EQ(again.node_crash, 0.2);
  EXPECT_EQ(again.seed, 11u);
  EXPECT_THROW(parse_fault_spec("node=1.5"), std::invalid_argument);

  // Certain crash: every node's decision fires, and its seeded crash
  // fraction lands inside the run.
  const FaultInjector injector(spec);
  FaultSpec certain = spec;
  certain.node_crash = 1.0;
  const FaultInjector always(certain);
  for (std::uint64_t node = 0; node < 16; ++node) {
    EXPECT_TRUE(always.node_crashes(node));
    const double frac = always.node_crash_frac(node);
    EXPECT_GE(frac, 0.0);
    EXPECT_LT(frac, 1.0);
  }
  // At 0.2 some nodes crash and some don't, deterministically per seed.
  int fired = 0;
  for (std::uint64_t node = 0; node < 64; ++node) {
    if (injector.node_crashes(node)) ++fired;
    EXPECT_EQ(injector.node_crashes(node), injector.node_crashes(node));
  }
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, 64);
}

}  // namespace
}  // namespace chiron
