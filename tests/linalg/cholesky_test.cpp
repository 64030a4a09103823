#include "linalg/cholesky.hpp"

#include <gtest/gtest.h>

#include "core/contracts.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "reference.hpp"
#include "stats/rng.hpp"

namespace hp::linalg {
namespace {

using testing::times;
using testing::max_abs_diff;

/// Random SPD matrix A = B B^T + n*I.
Matrix random_spd(std::size_t n, std::uint64_t seed) {
  stats::Rng rng(seed);
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.gaussian(0.0, 1.0);
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
  EXPECT_LT(max_abs_diff(times(a, x), b), 1e-8);
}

TEST(Cholesky, LowerUpperSolvesCompose) {
  const Matrix a = random_spd(4, 3);
  const Cholesky chol(a);
  Vector b{1.0, -1.0, 2.0, 0.5};
  const Vector y = chol.solve_lower(b);
  const Vector x = chol.solve_upper(y);
  EXPECT_LT(max_abs_diff(times(a, x), b), 1e-9);
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

/// The one-row-at-a-time factorization the interleaved one replaced, in
/// place: per column j, acc = a(i,j); acc -= l(i,k) * l(j,k) over
/// ascending k; l(i,j) = acc / l(j,j), one row i after another.
bool reference_factorize(Matrix& a) {
  const std::size_t n = a.rows();
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= a(j, k) * a(j, k);
    if (diag <= 0.0 || !std::isfinite(diag)) return false;
    const double ljj = std::sqrt(diag);
    a(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double acc = a(i, j);
      for (std::size_t k = 0; k < j; ++k) acc -= a(i, k) * a(j, k);
      a(i, j) = acc / ljj;
    }
  }
  return true;
}

/// A random SPD matrix whose strict upper triangle holds a sentinel, which
/// both factorizations must leave alone.
Matrix spd_with_sentinel(std::size_t n, std::uint64_t seed) {
  Matrix a = random_spd(n, seed);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = r + 1; c < n; ++c) a(r, c) = -7.25;
  }
  return a;
}

void expect_bitwise_equal(const Matrix& got, const Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  for (std::size_t r = 0; r < got.rows(); ++r) {
    for (std::size_t c = 0; c < got.cols(); ++c) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got(r, c)),
                std::bit_cast<std::uint64_t>(want(r, c)))
          << "at (" << r << ", " << c << "): " << got(r, c) << " vs "
          << want(r, c);
    }
  }
}

TEST(CholeskyFactorize, MatchesScalarReferenceForEveryRowRemainder) {
  for (std::size_t n = 1; n <= 64; ++n) {
    SCOPED_TRACE("n = " + std::to_string(n));
    Matrix got = spd_with_sentinel(n, 300 + n);
    Matrix want = got;
    ASSERT_TRUE(reference_factorize(want));
    ASSERT_TRUE(Cholesky::factorize(got));
    expect_bitwise_equal(got, want);
  }
}

TEST(CholeskyFactorize, FailsAtTheSamePivotAsTheScalarReference) {
  // A zero diagonal entry makes pivot j non-positive, in the first, a
  // middle or the last column; a NaN makes it non-finite. Both loops stop
  // there with the same partial state.
  for (std::size_t n = 1; n <= 64; ++n) {
    const std::vector<std::size_t> columns = {0, n / 2, n - 1};
    for (const std::size_t j : columns) {
      for (const double bad : {0.0, -1.0,
                               std::numeric_limits<double>::quiet_NaN()}) {
        SCOPED_TRACE("n = " + std::to_string(n) + ", column " +
                     std::to_string(j) + ", a(j,j) = " + std::to_string(bad));
        Matrix got = spd_with_sentinel(n, 500 + n);
        got(j, j) = bad;
        Matrix want = got;
        EXPECT_FALSE(reference_factorize(want));
        EXPECT_FALSE(Cholesky::factorize(got));
        expect_bitwise_equal(got, want);
      }
    }
  }
}

TEST(CholeskyFactorize, ConstructorAndWithJitterKeepAZeroUpperTriangle) {
  const Matrix a = random_spd(9, 41);
  Matrix want = a;
  ASSERT_TRUE(reference_factorize(want));
  for (std::size_t r = 0; r < 9; ++r) {
    for (std::size_t c = r + 1; c < 9; ++c) want(r, c) = 0.0;
  }
  expect_bitwise_equal(Cholesky(a).lower(), want);
  const auto jittered = Cholesky::with_jitter(a);
  ASSERT_TRUE(jittered.has_value());
  expect_bitwise_equal(jittered->lower(), want);
}

TEST(CholeskyFactorize, StaticSolvesMatchTheMemberSolves) {
  const Matrix a = random_spd(11, 43);
  const Cholesky chol(a);
  Vector b(11);
  for (std::size_t i = 0; i < 11; ++i) b[i] = std::cos(static_cast<double>(i));
  const Vector lower = chol.solve_lower(b);
  const Vector upper = chol.solve_upper(lower);
  std::vector<double> forward(11);
  std::vector<double> back(11);
  Cholesky::solve_lower_into(chol.lower(), b.raw(), forward);
  Cholesky::solve_upper_into(chol.lower(), forward, back);
  for (std::size_t i = 0; i < 11; ++i) {
    EXPECT_EQ(forward[i], lower[i]);
    EXPECT_EQ(back[i], upper[i]);
  }
  EXPECT_EQ(Cholesky::log_det(chol.lower()), chol.log_det());
}

class CholeskySizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CholeskySizes, RoundTripAtVariousSizes) {
  const std::size_t n = GetParam();
  const Matrix a = random_spd(n, 100 + n);
  const Cholesky chol(a);
  Vector b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = std::sin(static_cast<double>(i));
  const Vector x = chol.solve(b);
  EXPECT_LT(max_abs_diff(times(a, x), b), 1e-7) << "n=" << n;
  const Matrix l = chol.lower();
  EXPECT_LT(max_abs_diff(l * l.transposed(), a), 1e-7) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskySizes,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 40, 80));

}  // namespace
}  // namespace hp::linalg
