#include "linalg/cholesky.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

#include "reference.hpp"
#include "stats/rng.hpp"

namespace hp::linalg {
namespace {

using testing::max_abs_diff;

/// Random SPD matrix A = B B^T + n*I (comfortably positive definite).
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

/// Leading k x k principal submatrix.
Matrix principal(const Matrix& a, std::size_t k) {
  Matrix out(k, k);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) out(i, j) = a(i, j);
  }
  return out;
}

/// Border column a(0..n-1, n) of an (n+1) x (n+1) matrix.
Vector border_row(const Matrix& a) {
  const std::size_t n = a.rows() - 1;
  Vector row(n);
  for (std::size_t j = 0; j < n; ++j) row[j] = a(n, j);
  return row;
}

/// Asserts the lower triangles are equal BITWISE — the contract the
/// incremental GP refit relies on (golden traces must not move by an ulp).
void expect_factor_bits_equal(const Matrix& got, const Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  for (std::size_t i = 0; i < got.rows(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      EXPECT_EQ(got(i, j), want(i, j)) << "L(" << i << "," << j << ")";
    }
  }
}

TEST(CholeskyUpdate, ExtendedMatchesFullRefactorizationAllDims) {
  // Property sweep: every dimension 1..64, two seeds each. The bordered
  // update must agree with refactorizing from scratch not just to 1e-10 but
  // bit-for-bit (the stronger claim implies the issue's tolerance).
  for (std::size_t n = 1; n <= 64; ++n) {
    for (std::uint64_t seed : {std::uint64_t{7}, std::uint64_t{1000} + n}) {
      const Matrix full = random_spd(n + 1, seed);
      const Cholesky base(principal(full, n));
      ASSERT_EQ(base.jitter_used(), 0.0);
      const auto ext = base.extended(border_row(full), full(n, n));
      ASSERT_TRUE(ext.has_value()) << "n=" << n << " seed=" << seed;
      const Cholesky oneshot(full);
      expect_factor_bits_equal(ext->lower(), oneshot.lower());
      EXPECT_EQ(ext->jitter_used(), 0.0);
    }
  }
}

TEST(CholeskyUpdate, RepeatedExtensionFromDimOneMatchesOneShot) {
  constexpr std::size_t kDim = 48;
  const Matrix full = random_spd(kDim, 11);
  Cholesky chol(principal(full, 1));
  for (std::size_t n = 1; n < kDim; ++n) {
    Vector row(n);
    for (std::size_t j = 0; j < n; ++j) row[j] = full(n, j);
    auto next = chol.extended(row, full(n, n));
    ASSERT_TRUE(next.has_value()) << "extension to n=" << n + 1;
    chol = std::move(*next);
  }
  expect_factor_bits_equal(chol.lower(), Cholesky(full).lower());
}

TEST(CholeskyUpdate, NearSingularParentNeedsJitterAndStillExtends) {
  // The all-ones matrix is PSD but singular: the plain factorization fails
  // at the second pivot, so with_jitter must add jitter. Extension is then
  // a factor of the *jittered* bordered matrix, carrying the jitter along.
  constexpr std::size_t kDim = 6;
  Matrix ones(kDim, kDim, 1.0);
  const auto base = Cholesky::with_jitter(ones);
  ASSERT_TRUE(base.has_value());
  ASSERT_GT(base->jitter_used(), 0.0);
  const auto ext = base->extended(Vector(kDim, 1.0), 2.0);
  ASSERT_TRUE(ext.has_value());
  EXPECT_EQ(ext->jitter_used(), base->jitter_used());
  // Reconstruction check against the bordered jittered matrix.
  Matrix want(kDim + 1, kDim + 1, 1.0);
  for (std::size_t i = 0; i < kDim; ++i) want(i, i) += base->jitter_used();
  want(kDim, kDim) = 2.0;
  const Matrix l = ext->lower();
  EXPECT_LT(max_abs_diff(l * l.transposed(), want), 1e-10);
}

TEST(CholeskyUpdate, ExtendedRejectsIndefiniteBorder) {
  const Matrix a = random_spd(5, 3);
  const Cholesky chol(a);
  // A huge off-diagonal border with a tiny diagonal cannot complete an SPD
  // matrix: the new pivot goes negative and the update must refuse.
  EXPECT_FALSE(chol.extended(Vector(5, 100.0), 1e-6).has_value());
}

TEST(CholeskyUpdate, ExtendedFromOneByOne) {
  Matrix a{{4.0}};
  const Cholesky chol(a);
  const auto ext = chol.extended(Vector{2.0}, 5.0);
  ASSERT_TRUE(ext.has_value());
  const Matrix full{{4.0, 2.0}, {2.0, 5.0}};
  expect_factor_bits_equal(ext->lower(), Cholesky(full).lower());
}

TEST(CholeskyUpdate, TruncatedMatchesPrincipalFactor) {
  const Matrix a = random_spd(32, 21);
  const Cholesky full(a);
  for (std::size_t k : {std::size_t{1}, std::size_t{7}, std::size_t{31},
                        std::size_t{32}}) {
    const Cholesky trunc = full.truncated(k);
    expect_factor_bits_equal(trunc.lower(), Cholesky(principal(a, k)).lower());
    EXPECT_EQ(trunc.jitter_used(), 0.0);
  }
}

TEST(CholeskyUpdate, TruncatedRejectsOutOfRangeSizes) {
  const Cholesky chol(random_spd(4, 5));
  EXPECT_THROW((void)chol.truncated(0), std::invalid_argument);
  EXPECT_THROW((void)chol.truncated(5), std::invalid_argument);
}

TEST(CholeskyUpdate, TruncateThenExtendRoundTrips) {
  // The constant-liar pop/push cycle: drop rows, re-add the same rows, and
  // land on the identical factor bit-for-bit.
  const Matrix a = random_spd(12, 31);
  const Cholesky full(a);
  Cholesky chol = full.truncated(10);
  for (std::size_t n = 10; n < 12; ++n) {
    Vector row(n);
    for (std::size_t j = 0; j < n; ++j) row[j] = a(n, j);
    auto next = chol.extended(row, a(n, n));
    ASSERT_TRUE(next.has_value());
    chol = std::move(*next);
  }
  expect_factor_bits_equal(chol.lower(), full.lower());
}

TEST(CholeskyUpdate, SolveLowerIntoMatchesSolveLower) {
  const Matrix a = random_spd(9, 17);
  const Cholesky chol(a);
  Vector b(9);
  for (std::size_t i = 0; i < 9; ++i) b[i] = 0.5 * static_cast<double>(i) - 2.0;
  const Vector want = chol.solve_lower(b);
  std::vector<double> out(9, -1.0);
  chol.solve_lower_into(b.raw(), out);
  for (std::size_t i = 0; i < 9; ++i) EXPECT_EQ(out[i], want[i]);
}

TEST(CholeskyUpdate, SolveLowerBlockMatchesColumnwiseSolveLower) {
  // The GP's block prediction solves every query's forward substitution at
  // once, and a cached prediction resumes it at its first new row; each
  // column must come out bit-identical to a lone solve_lower().
  stats::Rng rng(31);
  for (std::size_t n = 1; n <= 64; ++n) {
    const Cholesky chol(random_spd(n, 100 + n));
    for (std::size_t width : {std::size_t{1}, std::size_t{5}, std::size_t{9}}) {
      std::vector<Vector> columns(width, Vector(n));
      std::vector<Vector> want(width);
      for (std::size_t b = 0; b < width; ++b) {
        for (std::size_t i = 0; i < n; ++i) {
          columns[b][i] = rng.gaussian(0.0, 1.0);
        }
        want[b] = chol.solve_lower(columns[b]);
      }
      for (std::size_t first_row : {std::size_t{0}, n / 2, n}) {
        // Rows before first_row hold their solved entries, the rest the
        // right-hand sides.
        std::vector<double> block(n * width);
        for (std::size_t b = 0; b < width; ++b) {
          for (std::size_t i = 0; i < n; ++i) {
            block[i * width + b] = i < first_row ? want[b][i] : columns[b][i];
          }
        }
        chol.solve_lower_block(block, width, first_row);
        for (std::size_t b = 0; b < width; ++b) {
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(block[i * width + b], want[b][i])
                << "n " << n << " width " << width << " first row "
                << first_row << " column " << b << " row " << i;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace hp::linalg
