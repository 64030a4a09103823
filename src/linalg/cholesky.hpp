#pragma once
// Cholesky factorization of symmetric positive-definite matrices, plus the
// triangular solves and log-determinant needed by Gaussian-process
// regression. Includes adaptive jitter for numerically borderline kernel
// matrices (standard practice in GP implementations such as Spearmint/GPy).

#include <optional>
#include <span>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace hp::linalg {

/// Lower-triangular Cholesky factor L of A = L L^T.
class Cholesky {
 public:
  /// Factorizes @p a. Throws std::invalid_argument if @p a is not square or
  /// not symmetric, std::runtime_error if it is not positive definite.
  explicit Cholesky(const Matrix& a);

  /// with_jitter()'s defaults: the first jitter is kInitialJitter times
  /// max(1, max|a_ij|), and each of kJitterAttempts retries multiplies it
  /// by 10.
  static constexpr double kInitialJitter = 1e-10;
  static constexpr int kJitterAttempts = 8;

  /// Attempts to factorize @p a, adding exponentially increasing jitter to
  /// the diagonal on failure (starting at @p initial_jitter times
  /// max(1, a.max_abs()), up to @p max_attempts multiplications by 10).
  /// Returns std::nullopt if the matrix stays indefinite. On success,
  /// jitter_used() reports what was added.
  [[nodiscard]] static std::optional<Cholesky> with_jitter(
      const Matrix& a, double initial_jitter = kInitialJitter,
      int max_attempts = kJitterAttempts);

  /// The one factorization routine, in place on caller storage: reads the
  /// lower triangle of the square matrix @p a (A's entries on and below the
  /// diagonal) and overwrites it with the factor L, leaving the strict upper
  /// triangle untouched. Returns false at the first pivot that is <= 0 or
  /// not finite, with @p a partly overwritten. Per column j, four rows i
  /// advance together, each with its own accumulator doing the one-row
  /// loop's operations in its order (acc = a(i,j); acc -= l(i,k) * l(j,k)
  /// over ascending k; l(i,j) = acc / l(j,j)), so the factor is bit for bit
  /// the one-row loop's while four add chains overlap. Squareness is an
  /// HP_REQUIRE contract.
  [[nodiscard]] static bool factorize(Matrix& a);

  /// Triangular solves and log-determinant for a factor held in caller
  /// storage: @p l's lower triangle, as factorize() leaves it. The member
  /// functions of the same names run these on the owned factor.
  static void solve_lower_into(const Matrix& l, std::span<const double> b,
                               std::span<double> out);
  static void solve_upper_into(const Matrix& l, std::span<const double> y,
                               std::span<double> out);
  [[nodiscard]] static double log_det(const Matrix& l) noexcept;

  /// Lower factor L.
  [[nodiscard]] const Matrix& lower() const noexcept { return l_; }

  /// Jitter added to the diagonal before factorization succeeded (0 when the
  /// plain constructor was used).
  [[nodiscard]] double jitter_used() const noexcept { return jitter_; }

  /// O(n^2) extension: the factor of the bordered matrix
  /// [[A, row], [row^T, diag]] given this factor L of the n x n matrix A.
  /// Returns std::nullopt when the extended matrix is not positive
  /// definite (the new pivot is <= 0 or non-finite). The arithmetic
  /// mirrors the full factorization operation-for-operation, so when this
  /// factor was produced without jitter the result is bit-identical to
  /// refactorizing the extended matrix from scratch — the property the
  /// incremental GP refit path (DESIGN.md par.13) relies on. jitter_used()
  /// is carried over unchanged: a jittered parent factors A + jitter*I, so
  /// the extension factors the bordered jittered matrix (callers that need
  /// the jitter-free semantics must check jitter_used() == 0 first).
  [[nodiscard]] std::optional<Cholesky> extended(const Vector& row,
                                                 double diag) const;

  /// Factor of the leading k x k principal submatrix of A. Column j of L
  /// depends only on the leading (j+1) x (j+1) block of A, so the leading
  /// block of L *is* that factor — an O(k^2) copy, used to pop
  /// constant-liar pseudo-observations without refactorizing. Throws
  /// std::invalid_argument when k is 0 or exceeds the dimension.
  [[nodiscard]] Cholesky truncated(std::size_t k) const;

  /// Solves A x = b via forward then backward substitution.
  [[nodiscard]] Vector solve(const Vector& b) const;

  /// Solves L y = b (forward substitution).
  [[nodiscard]] Vector solve_lower(const Vector& b) const;

  /// Forward substitution into caller-owned storage (@p out may not alias
  /// @p b) — the allocation-free core of solve_lower().
  void solve_lower_into(std::span<const double> b,
                        std::span<double> out) const {
    solve_lower_into(l_, b, out);
  }

  /// Forward substitution over many right-hand sides at once, in place:
  /// @p block is n x @p width row-major, row i holding entry i of every
  /// right-hand side. Rows before @p first_row must already hold their
  /// solved entries (they are read, not written); rows from @p first_row on
  /// hold right-hand-side entries and are solved. Each column goes through
  /// exactly the operations of solve_lower_into(), in the same order, so it
  /// matches solve_lower() bit for bit whatever @p first_row is; the
  /// innermost loop runs across eight columns at a time. Sizes and
  /// first_row <= n are an HP_REQUIRE contract.
  void solve_lower_block(std::span<double> block, std::size_t width,
                         std::size_t first_row) const;

  /// Solves L^T x = y (backward substitution).
  [[nodiscard]] Vector solve_upper(const Vector& y) const;

  /// log(det A) = 2 * sum(log(L_ii)).
  [[nodiscard]] double log_det() const noexcept { return log_det(l_); }

 private:
  struct FromFactor {};
  Cholesky(FromFactor, Matrix l, double jitter)
      : l_(std::move(l)), jitter_(jitter) {}

  Matrix l_;
  double jitter_ = 0.0;
};

}  // namespace hp::linalg
