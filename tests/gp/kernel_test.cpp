#include "gp/kernel.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/cholesky.hpp"
#include "stats/rng.hpp"

namespace hp::gp {
namespace {

using linalg::Matrix;
using linalg::Vector;

/// The properties a stationary kernel must have, on Matern 5/2, the one
/// kernel the library provides.
Matern52Kernel kernel() {
  KernelParams p;
  p.signal_variance = 1.7;
  p.length_scales = {0.5, 1.5};
  return Matern52Kernel(p);
}

TEST(Matern52Kernel, SymmetricInArguments) {
  const auto k = kernel();
  Vector a{0.1, 0.9};
  Vector b{0.7, 0.2};
  EXPECT_DOUBLE_EQ(k(a, b), k(b, a));
}

TEST(Matern52Kernel, DiagonalEqualsSignalVariance) {
  const auto k = kernel();
  Vector x{0.3, 0.4};
  EXPECT_NEAR(k(x, x), 1.7, 1e-12);
  EXPECT_DOUBLE_EQ(k.diagonal_value(), 1.7);
}

TEST(Matern52Kernel, DecaysWithDistance) {
  const auto k = kernel();
  Vector x{0.0, 0.0};
  double prev = k(x, x);
  for (double d = 0.2; d < 3.0; d += 0.2) {
    const double v = k(x, Vector{d, d});
    EXPECT_LT(v, prev);
    prev = v;
  }
}

TEST(Matern52Kernel, GramMatrixIsPositiveDefinite) {
  const auto k = kernel();
  stats::Rng rng(3);
  Matrix x(12, 2);
  for (std::size_t i = 0; i < 12; ++i) {
    x(i, 0) = rng.uniform();
    x(i, 1) = rng.uniform();
  }
  Matrix gram_m = kernel_matrix(k, x);
  EXPECT_TRUE(gram_m.is_symmetric(1e-12));
  const auto chol = linalg::Cholesky::with_jitter(gram_m);
  ASSERT_TRUE(chol.has_value());
  EXPECT_LT(chol->jitter_used(), 1e-4);
}

TEST(Matern52Kernel, DimensionMismatchThrows) {
  const auto k = kernel();
  EXPECT_THROW((void)k(Vector{1.0}, Vector{1.0, 2.0}), std::invalid_argument);
}

TEST(KernelParams, ValidationRejectsBadValues) {
  KernelParams p;
  p.signal_variance = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.signal_variance = 1.0;
  p.length_scales = {};
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.length_scales = {-1.0};
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(KernelParams, IsotropicBroadcast) {
  KernelParams p;
  p.length_scales = {2.0};
  EXPECT_DOUBLE_EQ(p.length_scale(0), 2.0);
  EXPECT_DOUBLE_EQ(p.length_scale(7), 2.0);
}

TEST(KernelParams, ArdPerDimension) {
  KernelParams p;
  p.length_scales = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(p.length_scale(1), 2.0);
  EXPECT_THROW((void)p.length_scale(2), std::out_of_range);
}

TEST(ArdDistance, WeightsDimensionsByLengthScale) {
  KernelParams p;
  p.length_scales = {1.0, 10.0};
  // Distance along the long-length-scale dimension contributes less.
  const double d_short = ard_distance(std::vector<double>{0.0, 0.0},
                                      std::vector<double>{1.0, 0.0}, p);
  const double d_long = ard_distance(std::vector<double>{0.0, 0.0},
                                     std::vector<double>{0.0, 1.0}, p);
  EXPECT_DOUBLE_EQ(d_short, 1.0);
  EXPECT_DOUBLE_EQ(d_long, 0.1);
}

TEST(ArdDistance, LengthScaleCountMismatchThrows) {
  KernelParams p;
  p.length_scales = {1.0, 2.0};
  EXPECT_THROW(
      (void)ard_distance(std::vector<double>{0.0, 0.0, 0.0},
                         std::vector<double>{1.0, 0.0, 0.0}, p),
      std::invalid_argument);
}

TEST(KernelCross, MatchesElementwiseEvaluation) {
  KernelParams p;
  p.length_scales = {0.7, 1.3};
  Matern52Kernel k(p);
  Matrix x{{0.0, 0.0}, {0.5, 0.5}, {1.0, 0.0}};
  const std::vector<Vector> queries{{0.25, 0.25}, {0.5, 0.5}, {0.9, -0.2}};
  // eval_block takes the queries dimension-major: qt[d * width + b].
  std::vector<double> qt(2 * queries.size());
  for (std::size_t b = 0; b < queries.size(); ++b) {
    for (std::size_t d = 0; d < 2; ++d) {
      qt[d * queries.size() + b] = queries[b][d];
    }
  }
  // From row 0 every entry is filled; from row 2 the rows before it keep
  // what they held.
  for (std::size_t first_row : {std::size_t{0}, std::size_t{2}}) {
    std::vector<double> cross(3 * queries.size(), -1.0);
    k.eval_block(x, qt, queries.size(), cross, first_row);
    for (std::size_t i = 0; i < 3; ++i) {
      for (std::size_t b = 0; b < queries.size(); ++b) {
        EXPECT_EQ(cross[i * queries.size() + b],
                  i < first_row ? -1.0 : k(x.row(i), queries[b]))
            << "first row " << first_row << " row " << i << " query " << b;
      }
    }
  }
  std::vector<double> cross(3 * queries.size());
  KernelParams three;
  three.length_scales = {1.0, 1.0, 1.0};
  EXPECT_THROW(
      Matern52Kernel(three).eval_block(x, qt, queries.size(), cross, 0),
      std::invalid_argument);
}

TEST(Matern52, MatchesClosedForm) {
  KernelParams p;
  p.signal_variance = 2.0;
  p.length_scales = {1.0};
  Matern52Kernel k(p);
  const double r = 0.7;
  const double s = std::sqrt(5.0) * r;
  const double expected = 2.0 * (1.0 + s + s * s / 3.0) * std::exp(-s);
  EXPECT_NEAR(k(Vector{0.0}, Vector{r}), expected, 1e-14);
}

}  // namespace
}  // namespace hp::gp
