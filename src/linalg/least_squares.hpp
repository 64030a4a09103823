#pragma once
// Linear least squares with optional ridge regularization and optional
// non-negativity projection — the fitting engine behind the paper's linear
// power/memory models P(z) = sum_j w_j z_j (Eq. 1-2).

#include <optional>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace hp::linalg {

/// Options controlling a least-squares fit.
struct LeastSquaresOptions {
  /// L2 (ridge) penalty on the coefficients; 0 = ordinary least squares.
  double ridge = 0.0;
  /// If true, an intercept column of ones is appended internally and the
  /// fitted intercept is reported separately.
  bool fit_intercept = false;
  /// If true, negative coefficients are clamped to zero and the remaining
  /// active set is refit (a simple NNLS-style active-set projection of at
  /// most 32 refits; adequate for the well-posed profiling designs used
  /// here). The layer-wise latency models use it: per-layer latency
  /// contributions are physically non-negative.
  bool nonnegative = false;
};

/// Result of a least-squares fit.
struct LeastSquaresFit {
  Vector coefficients;  ///< One per design column (intercept excluded).
  double intercept = 0.0;
  double residual_norm = 0.0;  ///< ||A x - b||_2 on the training data.
  /// Reciprocal condition estimate of the (augmented) design matrix.
  double condition_estimate = 1.0;

  /// Predicts for a single feature row (same column order as the design).
  [[nodiscard]] double predict(const Vector& features) const;
};

/// Solves min_x ||A x - b||^2 + ridge ||x||^2 with the requested options.
/// Uses Householder QR on the (optionally ridge-augmented) design.
/// Throws std::invalid_argument on shape mismatch or an underdetermined
/// unregularized system.
[[nodiscard]] LeastSquaresFit solve_least_squares(
    const Matrix& a, const Vector& b, const LeastSquaresOptions& options = {});

}  // namespace hp::linalg
