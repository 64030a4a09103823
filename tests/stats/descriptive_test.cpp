#include "stats/descriptive.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

namespace hp::stats {
namespace {

TEST(RunningStats, EmptyThrows) {
  RunningStats rs;
  EXPECT_TRUE(rs.empty());
  EXPECT_THROW((void)rs.mean(), std::logic_error);
  EXPECT_THROW((void)rs.min(), std::logic_error);
  EXPECT_THROW((void)rs.max(), std::logic_error);
}

TEST(RunningStats, SingleValue) {
  RunningStats rs;
  rs.add(3.0);
  EXPECT_EQ(rs.count(), 1u);
  EXPECT_DOUBLE_EQ(rs.mean(), 3.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
  EXPECT_DOUBLE_EQ(rs.min(), 3.0);
  EXPECT_DOUBLE_EQ(rs.max(), 3.0);
}

TEST(RunningStats, MatchesDirectComputation) {
  const std::vector<double> xs{1.0, 2.0, 4.0, 8.0, 16.0};
  RunningStats rs;
  for (double x : xs) rs.add(x);
  EXPECT_DOUBLE_EQ(rs.mean(), 6.2);
  // Sample variance computed by hand: sum((x-6.2)^2)/4.
  double ss = 0.0;
  for (double x : xs) ss += (x - 6.2) * (x - 6.2);
  EXPECT_NEAR(rs.variance(), ss / 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(rs.stddev(), std::sqrt(ss / 4.0));
}

TEST(Descriptive, MeanAndStddev) {
  const std::vector<double> xs{2.0, 4.0, 6.0};
  EXPECT_DOUBLE_EQ(mean(xs), 4.0);
  EXPECT_DOUBLE_EQ(sample_stddev(xs), 2.0);
}

TEST(Descriptive, MeanEmptyThrows) {
  EXPECT_THROW((void)mean(std::vector<double>{}), std::logic_error);
}

TEST(Descriptive, GeometricMean) {
  const std::vector<double> xs{1.0, 4.0, 16.0};
  EXPECT_NEAR(geometric_mean(xs), 4.0, 1e-12);
}

TEST(Descriptive, GeometricMeanRejectsNonPositive) {
  EXPECT_THROW((void)geometric_mean(std::vector<double>{1.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW((void)geometric_mean(std::vector<double>{-1.0}),
               std::invalid_argument);
}

TEST(Descriptive, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Descriptive, QuantileInterpolates) {
  const std::vector<double> xs{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 2.5);
}

TEST(Descriptive, QuantileValidation) {
  EXPECT_THROW((void)quantile({}, 0.5), std::logic_error);
  EXPECT_THROW((void)quantile({1.0}, 1.5), std::invalid_argument);
}

TEST(Descriptive, PearsonCorrelation) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> ys{2.0, 4.0, 6.0, 8.0};
  EXPECT_NEAR(pearson_correlation(xs, ys), 1.0, 1e-12);
  const std::vector<double> neg{8.0, 6.0, 4.0, 2.0};
  EXPECT_NEAR(pearson_correlation(xs, neg), -1.0, 1e-12);
}

TEST(Descriptive, PearsonDegenerateIsZero) {
  const std::vector<double> xs{1.0, 1.0, 1.0};
  const std::vector<double> ys{1.0, 2.0, 3.0};
  EXPECT_EQ(pearson_correlation(xs, ys), 0.0);
  EXPECT_EQ(pearson_correlation(std::vector<double>{1.0},
                                std::vector<double>{2.0}),
            0.0);
}

TEST(Descriptive, PearsonSizeMismatchThrows) {
  EXPECT_THROW((void)pearson_correlation(std::vector<double>{1.0},
                                         std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace hp::stats
