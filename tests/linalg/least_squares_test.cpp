#include "linalg/least_squares.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "reference.hpp"
#include "stats/rng.hpp"

namespace hp::linalg {
namespace {

using testing::times;

TEST(LeastSquares, RecoversExactLinearModel) {
  Matrix a{{1.0, 2.0}, {2.0, 1.0}, {3.0, 3.0}, {0.5, 1.5}};
  Vector x_true{2.0, -1.0};
  const Vector b = times(a, x_true);
  const LeastSquaresFit fit = solve_least_squares(a, b);
  EXPECT_NEAR(fit.coefficients[0], 2.0, 1e-10);
  EXPECT_NEAR(fit.coefficients[1], -1.0, 1e-10);
  EXPECT_NEAR(fit.residual_norm, 0.0, 1e-9);
}

TEST(LeastSquares, PredictMatchesManualDotProduct) {
  LeastSquaresFit fit;
  fit.coefficients = Vector{1.0, 2.0};
  fit.intercept = 0.5;
  EXPECT_DOUBLE_EQ(fit.predict(Vector{3.0, 4.0}), 11.5);
}

TEST(LeastSquares, PredictDimensionMismatchThrows) {
  LeastSquaresFit fit;
  fit.coefficients = Vector{1.0};
  EXPECT_THROW((void)fit.predict(Vector{1.0, 2.0}), std::invalid_argument);
}

TEST(LeastSquares, InterceptRecoversAffineModel) {
  stats::Rng rng(7);
  Matrix a(30, 2);
  Vector b(30);
  for (std::size_t i = 0; i < 30; ++i) {
    a(i, 0) = rng.uniform(0.0, 10.0);
    a(i, 1) = rng.uniform(0.0, 5.0);
    b[i] = 4.0 + 1.5 * a(i, 0) - 2.0 * a(i, 1);
  }
  LeastSquaresOptions opt;
  opt.fit_intercept = true;
  const LeastSquaresFit fit = solve_least_squares(a, b, opt);
  EXPECT_NEAR(fit.intercept, 4.0, 1e-9);
  EXPECT_NEAR(fit.coefficients[0], 1.5, 1e-9);
  EXPECT_NEAR(fit.coefficients[1], -2.0, 1e-9);
}

TEST(LeastSquares, RidgeShrinksCoefficients) {
  Matrix a{{1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}};
  Vector b{2.0, 2.0, 4.0};
  const LeastSquaresFit plain = solve_least_squares(a, b);
  LeastSquaresOptions opt;
  opt.ridge = 10.0;
  const LeastSquaresFit ridged = solve_least_squares(a, b, opt);
  EXPECT_LT(std::abs(ridged.coefficients[0]), std::abs(plain.coefficients[0]));
  EXPECT_LT(std::abs(ridged.coefficients[1]), std::abs(plain.coefficients[1]));
}

TEST(LeastSquares, RidgeAllowsUnderdeterminedSystem) {
  Matrix a{{1.0, 2.0, 3.0}};  // 1 equation, 3 unknowns
  Vector b{6.0};
  LeastSquaresOptions opt;
  opt.ridge = 1e-6;
  const LeastSquaresFit fit = solve_least_squares(a, b, opt);
  EXPECT_NEAR(fit.predict(Vector{1.0, 2.0, 3.0}), 6.0, 1e-3);
}

TEST(LeastSquares, UnderdeterminedWithoutRidgeThrows) {
  Matrix a{{1.0, 2.0, 3.0}};
  Vector b{6.0};
  EXPECT_THROW((void)solve_least_squares(a, b), std::invalid_argument);
}

TEST(LeastSquares, EmptyDesignThrows) {
  EXPECT_THROW((void)solve_least_squares(Matrix(), Vector()),
               std::invalid_argument);
}

TEST(LeastSquares, RowCountMismatchThrows) {
  EXPECT_THROW((void)solve_least_squares(Matrix(3, 2), Vector(4)),
               std::invalid_argument);
}

TEST(LeastSquares, NonnegativeClampsNegativeCoefficient) {
  // b depends negatively on the second column; NNLS must clamp it to 0.
  stats::Rng rng(9);
  Matrix a(40, 2);
  Vector b(40);
  for (std::size_t i = 0; i < 40; ++i) {
    a(i, 0) = rng.uniform(1.0, 5.0);
    a(i, 1) = rng.uniform(1.0, 5.0);
    b[i] = 3.0 * a(i, 0) - 0.8 * a(i, 1);
  }
  LeastSquaresOptions opt;
  opt.nonnegative = true;
  const LeastSquaresFit fit = solve_least_squares(a, b, opt);
  EXPECT_GE(fit.coefficients[0], 0.0);
  EXPECT_GE(fit.coefficients[1], 0.0);
  EXPECT_EQ(fit.coefficients[1], 0.0);
}

TEST(LeastSquares, NonnegativeKeepsAllPositiveSolution) {
  Matrix a{{1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}};
  Vector b{1.0, 2.0, 3.0};
  LeastSquaresOptions opt;
  opt.nonnegative = true;
  const LeastSquaresFit fit = solve_least_squares(a, b, opt);
  EXPECT_NEAR(fit.coefficients[0], 1.0, 1e-10);
  EXPECT_NEAR(fit.coefficients[1], 2.0, 1e-10);
}

TEST(LeastSquares, NonnegativeAllClampedFallsBackToIntercept) {
  // Target decreases in every feature: all coefficients clamp to zero and
  // only the intercept survives.
  Matrix a{{1.0}, {2.0}, {3.0}, {4.0}};
  Vector b{4.0, 3.0, 2.0, 1.0};
  LeastSquaresOptions opt;
  opt.nonnegative = true;
  opt.fit_intercept = true;
  const LeastSquaresFit fit = solve_least_squares(a, b, opt);
  EXPECT_EQ(fit.coefficients[0], 0.0);
  EXPECT_NEAR(fit.intercept, 2.5, 1e-10);
}

TEST(LeastSquares, ResidualNormMatchesManualComputation) {
  Matrix a{{1.0}, {1.0}};
  Vector b{1.0, 3.0};
  const LeastSquaresFit fit = solve_least_squares(a, b);
  // x = 2, residuals (1, -1), norm sqrt(2).
  EXPECT_NEAR(fit.residual_norm, std::sqrt(2.0), 1e-12);
}

TEST(LeastSquares, NoisyRecoveryIsClose) {
  stats::Rng rng(11);
  Matrix a(200, 3);
  Vector b(200);
  for (std::size_t i = 0; i < 200; ++i) {
    for (std::size_t j = 0; j < 3; ++j) a(i, j) = rng.uniform(0.0, 1.0);
    b[i] = 1.0 * a(i, 0) + 2.0 * a(i, 1) + 3.0 * a(i, 2) +
           rng.gaussian(0.0, 0.01);
  }
  const LeastSquaresFit fit = solve_least_squares(a, b);
  EXPECT_NEAR(fit.coefficients[0], 1.0, 0.05);
  EXPECT_NEAR(fit.coefficients[1], 2.0, 0.05);
  EXPECT_NEAR(fit.coefficients[2], 3.0, 0.05);
}

}  // namespace
}  // namespace hp::linalg
