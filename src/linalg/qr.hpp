#pragma once
// Householder QR factorization for tall-skinny design matrices, used by the
// least-squares fits of the power/memory predictors. QR is preferred over
// normal equations when the design is ill-conditioned (e.g. strongly
// correlated structural hyper-parameters).

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace hp::linalg {

/// Householder QR of an m x n matrix A with m >= n: A = Q R, where Q has
/// orthonormal columns and R is n x n upper triangular. The Householder
/// vectors are kept packed below the diagonal; R's diagonal is stored
/// separately.
class HouseholderQr {
 public:
  /// Factorizes @p a. Throws std::invalid_argument if a.rows() < a.cols().
  explicit HouseholderQr(Matrix a);

  /// Least-squares solve of min ||A x - b||_2 via R x = (Q^T b)[0..n).
  /// Throws std::invalid_argument on dimension mismatch and
  /// std::runtime_error if R is numerically singular.
  [[nodiscard]] Vector solve(const Vector& b) const;

  /// Applies Q^T (the full sequence of reflectors) to @p b in place and
  /// returns the result (length m).
  [[nodiscard]] Vector apply_qt(Vector b) const;

  /// min |R_ii| / max |R_ii|; a cheap reciprocal condition estimate in (0,1].
  [[nodiscard]] double diagonal_condition_estimate() const;

  [[nodiscard]] std::size_t rows() const noexcept { return qr_.rows(); }
  [[nodiscard]] std::size_t cols() const noexcept { return qr_.cols(); }

 private:
  Matrix qr_;      ///< Householder vectors below diag; R strictly above diag.
  Vector r_diag_;  ///< Diagonal of R.
  Vector beta_;    ///< Householder scaling coefficients 2/(v^T v).
};

}  // namespace hp::linalg
