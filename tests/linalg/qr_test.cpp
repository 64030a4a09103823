#include "linalg/qr.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "reference.hpp"
#include "stats/rng.hpp"

namespace hp::linalg {
namespace {

using testing::max_abs_diff;
using testing::norm;
using testing::times;

/// A^T (A x - b): zero at a least-squares solution x (normal equations).
Vector normal_equations_residual(const Matrix& a, const Vector& x,
                                 const Vector& b) {
  Vector r = times(a, x);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] -= b[i];
  return times(a.transposed(), r);
}

Matrix random_matrix(std::size_t m, std::size_t n, std::uint64_t seed) {
  stats::Rng rng(seed);
  Matrix a(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.gaussian(0.0, 1.0);
  }
  return a;
}

TEST(HouseholderQr, WideMatrixThrows) {
  EXPECT_THROW(HouseholderQr(Matrix(2, 3)), std::invalid_argument);
}

TEST(HouseholderQr, SolvesSquareSystemExactly) {
  Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  Vector b{5.0, 10.0};
  const HouseholderQr qr(a);
  const Vector x = qr.solve(b);
  EXPECT_LT(max_abs_diff(times(a, x), b), 1e-12);
}

TEST(HouseholderQr, LeastSquaresResidualOrthogonalToColumns) {
  const Matrix a = random_matrix(8, 3, 2);
  Vector b(8);
  for (std::size_t i = 0; i < 8; ++i) b[i] = std::cos(static_cast<double>(i));
  const HouseholderQr qr(a);
  const Vector x = qr.solve(b);
  EXPECT_LT(norm(normal_equations_residual(a, x, b)), 1e-10);
}

TEST(HouseholderQr, RecoversExactSolutionOfConsistentTallSystem) {
  const Matrix a = random_matrix(10, 4, 3);
  Vector x_true{1.0, -2.0, 0.5, 3.0};
  const Vector b = times(a, x_true);
  const HouseholderQr qr(a);
  const Vector x = qr.solve(b);
  EXPECT_LT(max_abs_diff(x, x_true), 1e-10);
}

TEST(HouseholderQr, QtPreservesNorm) {
  const Matrix a = random_matrix(7, 4, 4);
  const HouseholderQr qr(a);
  Vector b(7);
  for (std::size_t i = 0; i < 7; ++i) b[i] = static_cast<double>(i + 1);
  const Vector qtb = qr.apply_qt(b);
  EXPECT_NEAR(norm(qtb), norm(b), 1e-10);
}

TEST(HouseholderQr, SingularMatrixThrowsOnSolve) {
  Matrix a{{1.0, 1.0}, {1.0, 1.0}, {1.0, 1.0}};  // rank 1
  const HouseholderQr qr(a);
  EXPECT_THROW((void)qr.solve(Vector{1.0, 2.0, 3.0}), std::runtime_error);
}

TEST(HouseholderQr, ConditionEstimateOrderedByConditioning) {
  // Well-conditioned: identity-ish; ill-conditioned: nearly dependent cols.
  const HouseholderQr good(Matrix{{1.0, 0.0}, {0.0, 1.0}, {0.0, 0.0}});
  Matrix bad_m{{1.0, 1.0}, {1.0, 1.0 + 1e-9}, {0.0, 0.0}};
  const HouseholderQr bad(bad_m);
  EXPECT_GT(good.diagonal_condition_estimate(),
            bad.diagonal_condition_estimate());
}

TEST(HouseholderQr, ApplyQtDimensionMismatchThrows) {
  const HouseholderQr qr(random_matrix(5, 2, 5));
  EXPECT_THROW((void)qr.apply_qt(Vector(4)), std::invalid_argument);
}

class QrShapes
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(QrShapes, NormalEquationsHoldAtSolution) {
  const auto [m, n] = GetParam();
  const Matrix a = random_matrix(m, n, 50 + m + n);
  Vector b(m);
  for (std::size_t i = 0; i < m; ++i) b[i] = std::sin(0.7 * static_cast<double>(i));
  const HouseholderQr qr(a);
  const Vector x = qr.solve(b);
  EXPECT_LT(norm(normal_equations_residual(a, x, b)), 1e-8) << m << "x" << n;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, QrShapes,
    ::testing::Values(std::pair<std::size_t, std::size_t>{3, 3},
                      std::pair<std::size_t, std::size_t>{5, 2},
                      std::pair<std::size_t, std::size_t>{10, 4},
                      std::pair<std::size_t, std::size_t>{30, 7},
                      std::pair<std::size_t, std::size_t>{100, 13}));

}  // namespace
}  // namespace hp::linalg
