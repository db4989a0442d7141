#include "workflow/arrivals.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

namespace chiron {
namespace {

TEST(ArrivalsTest, RejectsNonPositiveRate) {
  EXPECT_THROW(ArrivalGenerator(ArrivalKind::kPoisson, 0.0, Rng(1)),
               std::invalid_argument);
}

TEST(ArrivalsTest, RejectsNonFiniteRate) {
  // An infinite rate made every generator loop without bound; NaN made
  // Poisson and burst generate nothing and uniform never terminate.
  for (double rate : {std::numeric_limits<double>::infinity(),
                      -std::numeric_limits<double>::infinity(),
                      std::numeric_limits<double>::quiet_NaN(), -5.0}) {
    EXPECT_THROW(ArrivalGenerator(ArrivalKind::kUniform, rate, Rng(1)),
                 std::invalid_argument)
        << rate;
  }
}

TEST(ArrivalsTest, RejectsNonFiniteOrNegativeHorizon) {
  for (ArrivalKind kind :
       {ArrivalKind::kPoisson, ArrivalKind::kUniform, ArrivalKind::kBurst}) {
    ArrivalGenerator gen(kind, 50.0, Rng(1));
    for (TimeMs horizon : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(), -1.0}) {
      EXPECT_THROW(gen.generate(horizon), std::invalid_argument) << horizon;
    }
    EXPECT_TRUE(gen.generate(0.0).empty());
  }
}

TEST(ArrivalsTest, PoissonRateIsApproximatelyRight) {
  ArrivalGenerator gen(ArrivalKind::kPoisson, 100.0, Rng(2));
  const auto arrivals = gen.generate(100000.0);  // 100 s
  EXPECT_NEAR(static_cast<double>(arrivals.size()), 10000.0, 400.0);
}

TEST(ArrivalsTest, ArrivalsAreSortedAndInHorizon) {
  for (ArrivalKind kind :
       {ArrivalKind::kPoisson, ArrivalKind::kUniform, ArrivalKind::kBurst}) {
    ArrivalGenerator gen(kind, 50.0, Rng(3));
    const auto arrivals = gen.generate(5000.0);
    EXPECT_TRUE(std::is_sorted(arrivals.begin(), arrivals.end()));
    for (TimeMs t : arrivals) {
      EXPECT_GE(t, 0.0);
      EXPECT_LT(t, 5000.0);
    }
  }
}

TEST(ArrivalsTest, UniformIsEvenlySpaced) {
  ArrivalGenerator gen(ArrivalKind::kUniform, 10.0, Rng(4));
  const auto arrivals = gen.generate(1000.0);
  ASSERT_GE(arrivals.size(), 2u);
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_NEAR(arrivals[i] - arrivals[i - 1], 100.0, 1e-6);
  }
}

TEST(ArrivalsTest, UniformCountIsExactOverLongHorizons) {
  // Regression: the accumulator form `t += mean_gap` drifted by an ulp
  // per step, so 100 s at 100 rps came up a request short of the offered
  // load. Index-based generation pins the count and the spacing exactly.
  const double rate = 100.0;
  const TimeMs horizon = 100000.0;  // 100 s
  ArrivalGenerator gen(ArrivalKind::kUniform, rate, Rng(6));
  const auto arrivals = gen.generate(horizon);
  // t = mean_gap * (i + 1) for every t < horizon: 10, 20, ..., 99990.
  EXPECT_EQ(arrivals.size(), 9999u);
  const TimeMs mean_gap = 1000.0 / rate;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    ASSERT_EQ(arrivals[i], mean_gap * static_cast<TimeMs>(i + 1)) << i;
  }
}

TEST(ArrivalsTest, BurstRealizedRateTracksOfferedAtHighRates) {
  // 10000 rps means the 0.1 ms intra-burst spacing equals the mean gap:
  // the generator must still emit a sorted stream whose realized rate is
  // within tolerance of the offered rate.
  const double rate = 10000.0;
  const TimeMs horizon = 5000.0;  // 5 s
  ArrivalGenerator gen(ArrivalKind::kBurst, rate, Rng(7));
  const auto arrivals = gen.generate(horizon);
  EXPECT_TRUE(std::is_sorted(arrivals.begin(), arrivals.end()));
  const double realized =
      static_cast<double>(arrivals.size()) / (horizon / 1000.0);
  EXPECT_NEAR(realized, rate, 0.05 * rate);
}

TEST(ArrivalsTest, BurstsClump) {
  ArrivalGenerator gen(ArrivalKind::kBurst, 100.0, Rng(5));
  const auto arrivals = gen.generate(10000.0);
  ASSERT_GT(arrivals.size(), 10u);
  // At least some consecutive gaps are the intra-burst 0.1 ms.
  int tight = 0;
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    if (arrivals[i] - arrivals[i - 1] < 0.2) ++tight;
  }
  EXPECT_GT(tight, static_cast<int>(arrivals.size()) / 2);
}

}  // namespace
}  // namespace chiron
