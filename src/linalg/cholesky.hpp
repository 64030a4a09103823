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

  /// Attempts to factorize @p a, adding exponentially increasing jitter to
  /// the diagonal on failure (starting at @p initial_jitter, up to
  /// @p max_attempts doublings-by-10). Returns std::nullopt if the matrix
  /// stays indefinite. On success, jitter_used() reports what was added.
  [[nodiscard]] static std::optional<Cholesky> with_jitter(
      Matrix a, double initial_jitter = 1e-10, int max_attempts = 8);

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
  /// @p b) — the allocation-free core of solve_lower() for the batched
  /// prediction path.
  void solve_lower_into(std::span<const double> b, std::span<double> out) const;

  /// Solves L^T x = y (backward substitution).
  [[nodiscard]] Vector solve_upper(const Vector& y) const;

  /// log(det A) = 2 * sum(log(L_ii)).
  [[nodiscard]] double log_det() const noexcept;

 private:
  struct FromFactor {};
  Cholesky(FromFactor, Matrix l, double jitter)
      : l_(std::move(l)), jitter_(jitter) {}

  /// Core in-place factorization; returns the factor or nullopt.
  [[nodiscard]] static std::optional<Matrix> factorize(const Matrix& a);

  Matrix l_;
  double jitter_ = 0.0;
};

}  // namespace hp::linalg
