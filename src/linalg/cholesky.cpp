#include "linalg/cholesky.hpp"

#include <cmath>
#include <stdexcept>

#include "core/contracts.hpp"

namespace hp::linalg {

std::optional<Matrix> Cholesky::factorize(const Matrix& a) {
  HP_ASSERT(a.square(), "Cholesky::factorize: callers pre-check squareness");
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    if (diag <= 0.0 || !std::isfinite(diag)) return std::nullopt;
    const double ljj = std::sqrt(diag);
    l(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double acc = a(i, j);
      for (std::size_t k = 0; k < j; ++k) acc -= l(i, k) * l(j, k);
      l(i, j) = acc / ljj;
    }
  }
  return l;
}

Cholesky::Cholesky(const Matrix& a) {
  if (!a.square()) {
    throw std::invalid_argument("Cholesky: matrix must be square");
  }
  if (!a.is_symmetric(1e-8 * std::max(1.0, a.max_abs()))) {
    throw std::invalid_argument("Cholesky: matrix must be symmetric");
  }
  auto l = factorize(a);
  if (!l) {
    throw std::runtime_error("Cholesky: matrix is not positive definite");
  }
  l_ = std::move(*l);
}

std::optional<Cholesky> Cholesky::with_jitter(Matrix a, double initial_jitter,
                                              int max_attempts) {
  if (!a.square()) {
    throw std::invalid_argument("Cholesky::with_jitter: matrix must be square");
  }
  if (auto l = factorize(a)) {
    return Cholesky(FromFactor{}, std::move(*l), 0.0);
  }
  double jitter = initial_jitter * std::max(1.0, a.max_abs());
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    Matrix jittered = a;
    jittered.add_to_diagonal(jitter);
    if (auto l = factorize(jittered)) {
      return Cholesky(FromFactor{}, std::move(*l), jitter);
    }
    jitter *= 10.0;
  }
  return std::nullopt;
}

std::optional<Cholesky> Cholesky::extended(const Vector& row,
                                           double diag) const {
  const std::size_t n = l_.rows();
  HP_REQUIRE(row.size() == n, "Cholesky::extended: row dimension mismatch");
  Matrix l(n + 1, n + 1);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c <= r; ++c) l(r, c) = l_(r, c);
  }
  // The new bottom row of L is the forward-substitution solve L y = row.
  // The loop mirrors factorize()'s per-column update (acc = a(i,j);
  // acc -= l(i,k)*l(j,k); acc / l(j,j)) term-for-term so the extension is
  // bit-identical to refactorizing the bordered matrix from scratch.
  for (std::size_t j = 0; j < n; ++j) {
    double acc = row[j];
    for (std::size_t k = 0; k < j; ++k) acc -= l(n, k) * l_(j, k);
    l(n, j) = acc / l_(j, j);
  }
  // New pivot: same sequential subtraction order as factorize()'s diagonal
  // accumulation (NOT diag - dot(y, y), which rounds differently).
  double pivot = diag;
  for (std::size_t k = 0; k < n; ++k) pivot -= l(n, k) * l(n, k);
  if (pivot <= 0.0 || !std::isfinite(pivot)) return std::nullopt;
  l(n, n) = std::sqrt(pivot);
  return Cholesky(FromFactor{}, std::move(l), jitter_);
}

Cholesky Cholesky::truncated(std::size_t k) const {
  const std::size_t n = l_.rows();
  if (k == 0 || k > n) {
    throw std::invalid_argument("Cholesky::truncated: size out of range");
  }
  Matrix l(k, k);
  for (std::size_t r = 0; r < k; ++r) {
    for (std::size_t c = 0; c <= r; ++c) l(r, c) = l_(r, c);
  }
  return Cholesky(FromFactor{}, std::move(l), jitter_);
}

Vector Cholesky::solve_lower(const Vector& b) const {
  const std::size_t n = l_.rows();
  HP_REQUIRE(b.size() == n, "Cholesky::solve_lower: dimension mismatch");
  Vector y(n);
  solve_lower_into(std::span<const double>(b.raw()),
                   std::span<double>(y.raw()));
  return y;
}

void Cholesky::solve_lower_into(std::span<const double> b,
                                std::span<double> out) const {
  const std::size_t n = l_.rows();
  HP_REQUIRE(b.size() == n && out.size() == n,
             "Cholesky::solve_lower_into: dimension mismatch");
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[i];
    for (std::size_t k = 0; k < i; ++k) acc -= l_(i, k) * out[k];
    out[i] = acc / l_(i, i);
  }
}

Vector Cholesky::solve_upper(const Vector& y) const {
  const std::size_t n = l_.rows();
  HP_REQUIRE(y.size() == n, "Cholesky::solve_upper: dimension mismatch");
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) acc -= l_(k, ii) * x[k];
    x[ii] = acc / l_(ii, ii);
  }
  return x;
}

Vector Cholesky::solve(const Vector& b) const {
  return solve_upper(solve_lower(b));
}

double Cholesky::log_det() const noexcept {
  double acc = 0.0;
  for (std::size_t i = 0; i < l_.rows(); ++i) acc += std::log(l_(i, i));
  return 2.0 * acc;
}

}  // namespace hp::linalg
