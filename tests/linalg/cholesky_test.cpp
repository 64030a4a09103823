#include "linalg/cholesky.hpp"

#include <gtest/gtest.h>

#include "core/contracts.hpp"

#include <cmath>

#include "stats/rng.hpp"

namespace hp::linalg {
namespace {

/// Random SPD matrix A = B B^T + n*I.
Matrix random_spd(std::size_t n, std::uint64_t seed) {
  stats::Rng rng(seed);
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.gaussian();
  }
  Matrix a = b * b.transposed();
  a.add_to_diagonal(static_cast<double>(n));
  return a;
}

TEST(Cholesky, FactorReconstructsMatrix) {
  const Matrix a = random_spd(5, 1);
  const Cholesky chol(a);
  const Matrix l = chol.lower();
  EXPECT_LT(max_abs_diff(l * l.transposed(), a), 1e-9);
}

TEST(Cholesky, SolveMatchesDirectCheck) {
  const Matrix a = random_spd(6, 2);
  Vector b(6);
  for (std::size_t i = 0; i < 6; ++i) b[i] = static_cast<double>(i) - 2.0;
  const Cholesky chol(a);
  const Vector x = chol.solve(b);
  EXPECT_LT(max_abs_diff(a * x, b), 1e-8);
}

TEST(Cholesky, LowerUpperSolvesCompose) {
  const Matrix a = random_spd(4, 3);
  const Cholesky chol(a);
  Vector b{1.0, -1.0, 2.0, 0.5};
  const Vector y = chol.solve_lower(b);
  const Vector x = chol.solve_upper(y);
  EXPECT_LT(max_abs_diff(a * x, b), 1e-9);
}

TEST(Cholesky, LogDetMatchesTwoByTwo) {
  Matrix a{{4.0, 2.0}, {2.0, 3.0}};  // det = 8
  const Cholesky chol(a);
  EXPECT_NEAR(chol.log_det(), std::log(8.0), 1e-12);
}

TEST(Cholesky, NonSquareThrows) {
  Matrix a(2, 3);
  EXPECT_THROW(Cholesky{a}, std::invalid_argument);
}

TEST(Cholesky, NonSymmetricThrows) {
  Matrix a{{1.0, 2.0}, {0.0, 1.0}};
  EXPECT_THROW(Cholesky{a}, std::invalid_argument);
}

TEST(Cholesky, IndefiniteThrows) {
  Matrix a{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
  EXPECT_THROW(Cholesky{a}, std::runtime_error);
}

TEST(Cholesky, WithJitterSucceedsOnSingularMatrix) {
  // Rank-1 PSD matrix: plain factorization fails, jitter succeeds.
  Matrix a{{1.0, 1.0}, {1.0, 1.0}};
  const auto chol = Cholesky::with_jitter(a);
  ASSERT_TRUE(chol.has_value());
  EXPECT_GT(chol->jitter_used(), 0.0);
}

TEST(Cholesky, WithJitterNoJitterForGoodMatrix) {
  const auto chol = Cholesky::with_jitter(random_spd(3, 5));
  ASSERT_TRUE(chol.has_value());
  EXPECT_EQ(chol->jitter_used(), 0.0);
}

TEST(Cholesky, WithJitterGivesUpOnStronglyIndefinite) {
  Matrix a{{1.0, 0.0}, {0.0, -1e12}};
  const auto chol = Cholesky::with_jitter(a, 1e-10, 3);
  EXPECT_FALSE(chol.has_value());
}

#if HP_CONTRACTS
TEST(Cholesky, SolveDimensionMismatchViolatesContract) {
  const Cholesky chol(random_spd(3, 6));
  EXPECT_THROW((void)chol.solve(Vector(4)), core::ContractViolation);
}
#endif

class CholeskySizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CholeskySizes, RoundTripAtVariousSizes) {
  const std::size_t n = GetParam();
  const Matrix a = random_spd(n, 100 + n);
  const Cholesky chol(a);
  Vector b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = std::sin(static_cast<double>(i));
  const Vector x = chol.solve(b);
  EXPECT_LT(max_abs_diff(a * x, b), 1e-7) << "n=" << n;
  const Matrix l = chol.lower();
  EXPECT_LT(max_abs_diff(l * l.transposed(), a), 1e-7) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskySizes,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 40, 80));

}  // namespace
}  // namespace hp::linalg
