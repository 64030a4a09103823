#include "stats/distributions.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace hp::stats {
namespace {

TEST(NormalPdf, StandardValues) {
  EXPECT_NEAR(normal_pdf(0.0), 0.3989422804014327, 1e-12);
  EXPECT_NEAR(normal_pdf(1.0), 0.24197072451914337, 1e-12);
  EXPECT_NEAR(normal_pdf(-1.0), normal_pdf(1.0), 1e-15);
}

TEST(NormalCdf, KnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.959963984540054), 0.975, 1e-9);
  EXPECT_NEAR(normal_cdf(-1.959963984540054), 0.025, 1e-9);
  EXPECT_NEAR(normal_cdf(6.0), 1.0, 1e-9);
  EXPECT_NEAR(normal_cdf(-6.0), 0.0, 1e-9);
}

TEST(NormalCdf, Monotone) {
  double prev = 0.0;
  for (double x = -5.0; x <= 5.0; x += 0.1) {
    const double c = normal_cdf(x);
    EXPECT_GE(c, prev);
    prev = c;
  }
}

TEST(ExpectedImprovement, ZeroVarianceDegeneratesToHinge) {
  EXPECT_DOUBLE_EQ(expected_improvement(0.5, 0.0, 0.7), 0.2);
  EXPECT_DOUBLE_EQ(expected_improvement(0.9, 0.0, 0.7), 0.0);
}

TEST(ExpectedImprovement, MatchesNumericalIntegration) {
  // EI = integral of max(best - y, 0) * N(y; mean, sd^2) dy.
  const double mean = 0.3, sd = 0.2, best = 0.35;
  double acc = 0.0;
  const int n = 200000;
  const double lo = mean - 8 * sd, hi = mean + 8 * sd;
  const double dy = (hi - lo) / n;
  for (int i = 0; i < n; ++i) {
    const double y = lo + (i + 0.5) * dy;
    const double density = normal_pdf((y - mean) / sd) / sd;
    acc += std::max(best - y, 0.0) * density * dy;
  }
  EXPECT_NEAR(expected_improvement(mean, sd, best), acc, 1e-6);
}

TEST(ExpectedImprovement, IncreasesWithUncertainty) {
  const double a = expected_improvement(0.5, 0.1, 0.4);
  const double b = expected_improvement(0.5, 0.3, 0.4);
  EXPECT_GT(b, a);
}

TEST(ExpectedImprovement, DecreasesAsMeanWorsens) {
  const double a = expected_improvement(0.4, 0.1, 0.5);
  const double b = expected_improvement(0.6, 0.1, 0.5);
  EXPECT_GT(a, b);
}

TEST(ExpectedImprovement, AlwaysNonNegative) {
  for (double mean : {-1.0, 0.0, 2.0}) {
    for (double sd : {0.0, 0.01, 1.0}) {
      for (double best : {-2.0, 0.0, 1.0}) {
        EXPECT_GE(expected_improvement(mean, sd, best), 0.0);
      }
    }
  }
}

TEST(ProbabilityBelow, GaussianCase) {
  EXPECT_NEAR(probability_below(0.0, 1.0, 0.0), 0.5, 1e-12);
  EXPECT_GT(probability_below(0.0, 1.0, 1.0), 0.8);
  EXPECT_LT(probability_below(0.0, 1.0, -1.0), 0.2);
}

TEST(ProbabilityBelow, DegenerateStep) {
  EXPECT_EQ(probability_below(5.0, 0.0, 5.0), 1.0);
  EXPECT_EQ(probability_below(5.0, 0.0, 4.999), 0.0);
}

}  // namespace
}  // namespace hp::stats
