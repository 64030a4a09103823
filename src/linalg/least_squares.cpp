#include "linalg/least_squares.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "linalg/qr.hpp"

namespace hp::linalg {

double LeastSquaresFit::predict(const Vector& features) const {
  if (features.size() != coefficients.size()) {
    throw std::invalid_argument("LeastSquaresFit::predict: dimension mismatch");
  }
  return intercept + dot(features, coefficients);
}

namespace {

/// Refits of the non-negative active-set projection before the remaining
/// negative coefficients are clamped outright.
constexpr int kMaxActiveSetIterations = 32;

/// Builds the working design: optional intercept column appended last,
/// optional ridge rows sqrt(ridge)*I appended below (intercept unpenalized).
struct WorkingProblem {
  Matrix a;
  Vector b;
  std::size_t n_features;
  bool has_intercept;
};

WorkingProblem build_problem(const Matrix& a, const Vector& b,
                             const LeastSquaresOptions& opt,
                             const std::vector<bool>& active) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  std::vector<std::size_t> cols;
  for (std::size_t j = 0; j < n; ++j) {
    if (active.empty() || active[j]) cols.push_back(j);
  }
  const std::size_t na = cols.size();
  const std::size_t total_cols = na + (opt.fit_intercept ? 1 : 0);
  const std::size_t ridge_rows = opt.ridge > 0.0 ? na : 0;
  Matrix wa(m + ridge_rows, total_cols);
  Vector wb(m + ridge_rows);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t jj = 0; jj < na; ++jj) wa(i, jj) = a(i, cols[jj]);
    if (opt.fit_intercept) wa(i, na) = 1.0;
    wb[i] = b[i];
  }
  if (ridge_rows > 0) {
    const double s = std::sqrt(opt.ridge);
    for (std::size_t jj = 0; jj < na; ++jj) wa(m + jj, jj) = s;
  }
  return {std::move(wa), std::move(wb), na, opt.fit_intercept};
}

}  // namespace

LeastSquaresFit solve_least_squares(const Matrix& a, const Vector& b,
                                    const LeastSquaresOptions& options) {
  if (a.rows() != b.size()) {
    throw std::invalid_argument("solve_least_squares: rows(A) != size(b)");
  }
  if (a.cols() == 0 || a.rows() == 0) {
    throw std::invalid_argument("solve_least_squares: empty design matrix");
  }
  const std::size_t min_rows = a.cols() + (options.fit_intercept ? 1 : 0);
  if (options.ridge <= 0.0 && a.rows() < min_rows) {
    throw std::invalid_argument(
        "solve_least_squares: underdetermined system without ridge");
  }

  std::vector<bool> active(a.cols(), true);
  LeastSquaresFit fit;
  double cond = 1.0;

  for (int iter = 0;; ++iter) {
    WorkingProblem wp = build_problem(a, b, options, active);
    if (wp.a.cols() == 0) {
      // Everything clamped to zero: intercept-only (or all-zero) model.
      fit.coefficients = Vector(a.cols());
      fit.intercept = options.fit_intercept ? b.mean() : 0.0;
      break;
    }
    HouseholderQr qr(std::move(wp.a));
    cond = qr.diagonal_condition_estimate();
    Vector x = qr.solve(wp.b);

    // Scatter back into full coefficient vector.
    Vector coef(a.cols());
    std::size_t jj = 0;
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (active[j]) coef[j] = x[jj++];
    }
    fit.coefficients = coef;
    fit.intercept = options.fit_intercept ? x[wp.n_features] : 0.0;

    if (!options.nonnegative) break;
    // Clamp the most negative coefficient out of the active set and refit.
    std::size_t worst = a.cols();
    double worst_val = -1e-12;
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (active[j] && fit.coefficients[j] < worst_val) {
        worst_val = fit.coefficients[j];
        worst = j;
      }
    }
    if (worst == a.cols()) break;  // all non-negative
    if (iter >= kMaxActiveSetIterations) {
      // Defensive clamp: zero the remaining negatives and stop.
      for (std::size_t j = 0; j < a.cols(); ++j) {
        if (fit.coefficients[j] < 0.0) fit.coefficients[j] = 0.0;
      }
      break;
    }
    active[worst] = false;
  }

  // Training residual on the *original* (non-augmented) problem.
  double rss = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double pred = fit.intercept;
    for (std::size_t j = 0; j < a.cols(); ++j) {
      pred += a(i, j) * fit.coefficients[j];
    }
    const double r = pred - b[i];
    rss += r * r;
  }
  fit.residual_norm = std::sqrt(rss);
  fit.condition_estimate = cond;
  return fit;
}

}  // namespace hp::linalg
