#include "stats/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

namespace hp::stats {
namespace {

TEST(Metrics, RmseHandValue) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> p{1.0, 2.0, 5.0};
  EXPECT_NEAR(rmse(a, p), std::sqrt(4.0 / 3.0), 1e-12);
}

TEST(Metrics, RmseZeroForPerfectPrediction) {
  const std::vector<double> a{1.0, -2.0};
  EXPECT_EQ(rmse(a, a), 0.0);
}

TEST(Metrics, RmspeHandValue) {
  // Errors of 10% and 20% -> sqrt((0.01 + 0.04)/2)*100.
  const std::vector<double> a{100.0, 100.0};
  const std::vector<double> p{110.0, 80.0};
  EXPECT_NEAR(rmspe(a, p), 100.0 * std::sqrt(0.025), 1e-9);
}

TEST(Metrics, RmspeZeroActualThrows) {
  EXPECT_THROW((void)rmspe(std::vector<double>{0.0}, std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(Metrics, MaeHandValue) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> p{2.0, 2.0, 1.0};
  EXPECT_NEAR(mae(a, p), 1.0, 1e-12);
}

TEST(Metrics, RSquaredPerfectIsOne) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(r_squared(a, a), 1.0);
}

TEST(Metrics, RSquaredMeanPredictorIsZero) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> p{2.0, 2.0, 2.0};
  EXPECT_NEAR(r_squared(a, p), 0.0, 1e-12);
}

TEST(Metrics, RSquaredWorseThanMeanIsNegative) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> p{3.0, 2.0, 1.0};
  EXPECT_LT(r_squared(a, p), 0.0);
}

TEST(Metrics, SizeMismatchThrows) {
  const std::vector<double> a{1.0};
  const std::vector<double> p{1.0, 2.0};
  EXPECT_THROW((void)rmse(a, p), std::invalid_argument);
  EXPECT_THROW((void)rmspe(a, p), std::invalid_argument);
  EXPECT_THROW((void)mae(a, p), std::invalid_argument);
  EXPECT_THROW((void)r_squared(a, p), std::invalid_argument);
}

TEST(Metrics, EmptyThrows) {
  const std::vector<double> e;
  EXPECT_THROW((void)rmse(e, e), std::invalid_argument);
  EXPECT_THROW((void)rmspe(e, e), std::invalid_argument);
}

TEST(Metrics, RmspeScaleInvariance) {
  // RMSPE is invariant to a common scale on actual+predicted.
  const std::vector<double> a{50.0, 80.0, 120.0};
  const std::vector<double> p{55.0, 75.0, 130.0};
  std::vector<double> a2, p2;
  for (double x : a) a2.push_back(10.0 * x);
  for (double x : p) p2.push_back(10.0 * x);
  EXPECT_NEAR(rmspe(a, p), rmspe(a2, p2), 1e-10);
}

}  // namespace
}  // namespace hp::stats
