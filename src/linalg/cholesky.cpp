#include "linalg/cholesky.hpp"

#include <cmath>
#include <stdexcept>

#include "core/contracts.hpp"

namespace hp::linalg {

namespace {

/// The lower triangle of @p a, zeros above: the storage factorize() turns
/// into a factor whose lower() has a zero upper triangle.
Matrix lower_triangle(const Matrix& a) {
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c <= r; ++c) l(r, c) = a(r, c);
  }
  return l;
}

}  // namespace

bool Cholesky::factorize(Matrix& a) {
  HP_REQUIRE(a.square(), "Cholesky::factorize: matrix must be square");
  const std::size_t n = a.rows();
  if (n == 0) return true;
  double* const base = &a(0, 0);
  for (std::size_t j = 0; j < n; ++j) {
    double* const lj = base + j * n;
    double diag = lj[j];
    for (std::size_t k = 0; k < j; ++k) diag -= lj[k] * lj[k];
    if (diag <= 0.0 || !std::isfinite(diag)) return false;
    const double ljj = std::sqrt(diag);
    lj[j] = ljj;
    std::size_t i = j + 1;
    for (; i + 4 <= n; i += 4) {
      double* const l0 = base + i * n;
      double* const l1 = l0 + n;
      double* const l2 = l1 + n;
      double* const l3 = l2 + n;
      double acc0 = l0[j];
      double acc1 = l1[j];
      double acc2 = l2[j];
      double acc3 = l3[j];
      for (std::size_t k = 0; k < j; ++k) {
        const double ljk = lj[k];
        acc0 -= l0[k] * ljk;
        acc1 -= l1[k] * ljk;
        acc2 -= l2[k] * ljk;
        acc3 -= l3[k] * ljk;
      }
      l0[j] = acc0 / ljj;
      l1[j] = acc1 / ljj;
      l2[j] = acc2 / ljj;
      l3[j] = acc3 / ljj;
    }
    for (; i < n; ++i) {
      double* const li = base + i * n;
      double acc = li[j];
      for (std::size_t k = 0; k < j; ++k) acc -= li[k] * lj[k];
      li[j] = acc / ljj;
    }
  }
  return true;
}

Cholesky::Cholesky(const Matrix& a) {
  if (!a.square()) {
    throw std::invalid_argument("Cholesky: matrix must be square");
  }
  if (!a.is_symmetric(1e-8 * std::max(1.0, a.max_abs()))) {
    throw std::invalid_argument("Cholesky: matrix must be symmetric");
  }
  l_ = lower_triangle(a);
  if (!factorize(l_)) {
    throw std::runtime_error("Cholesky: matrix is not positive definite");
  }
}

std::optional<Cholesky> Cholesky::with_jitter(const Matrix& a,
                                              double initial_jitter,
                                              int max_attempts) {
  if (!a.square()) {
    throw std::invalid_argument("Cholesky::with_jitter: matrix must be square");
  }
  Matrix l = lower_triangle(a);
  if (factorize(l)) return Cholesky(FromFactor{}, std::move(l), 0.0);
  double jitter = initial_jitter * std::max(1.0, a.max_abs());
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    l = lower_triangle(a);
    l.add_to_diagonal(jitter);
    if (factorize(l)) return Cholesky(FromFactor{}, std::move(l), jitter);
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

void Cholesky::solve_lower_into(const Matrix& l, std::span<const double> b,
                                std::span<double> out) {
  const std::size_t n = l.rows();
  HP_REQUIRE(b.size() == n && out.size() == n,
             "Cholesky::solve_lower_into: dimension mismatch");
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[i];
    for (std::size_t k = 0; k < i; ++k) acc -= l(i, k) * out[k];
    out[i] = acc / l(i, i);
  }
}

namespace {

/// Forward substitution of columns [b, b + kLanes) of an n x width block,
/// rows [first_row, n). Each column keeps its accumulator in a register
/// across k.
template <std::size_t kLanes>
void solve_lower_columns(const Matrix& l, double* block, std::size_t width,
                         std::size_t b, std::size_t first_row) {
  for (std::size_t i = first_row; i < l.rows(); ++i) {
    double* row = block + i * width + b;
    double acc[kLanes];
    for (std::size_t j = 0; j < kLanes; ++j) acc[j] = row[j];
    for (std::size_t k = 0; k < i; ++k) {
      const double lik = l(i, k);
      const double* vk = block + k * width + b;
      for (std::size_t j = 0; j < kLanes; ++j) acc[j] -= lik * vk[j];
    }
    const double lii = l(i, i);
    for (std::size_t j = 0; j < kLanes; ++j) row[j] = acc[j] / lii;
  }
}

}  // namespace

void Cholesky::solve_lower_block(std::span<double> block, std::size_t width,
                                 std::size_t first_row) const {
  HP_REQUIRE(block.size() == l_.rows() * width && first_row <= l_.rows(),
             "Cholesky::solve_lower_block: block must be n x width");
  // Per column: acc = b_i, acc -= L(i,k) * v_k over ascending k, then
  // v_i = acc / L(i,i) -- solve_lower_into()'s operations, eight columns
  // side by side, then the rest one by one.
  std::size_t b = 0;
  for (; b + 8 <= width; b += 8) {
    solve_lower_columns<8>(l_, block.data(), width, b, first_row);
  }
  for (; b < width; ++b) {
    solve_lower_columns<1>(l_, block.data(), width, b, first_row);
  }
}

Vector Cholesky::solve_upper(const Vector& y) const {
  Vector x(l_.rows());
  solve_upper_into(l_, std::span<const double>(y.raw()),
                   std::span<double>(x.raw()));
  return x;
}

void Cholesky::solve_upper_into(const Matrix& l, std::span<const double> y,
                                std::span<double> out) {
  const std::size_t n = l.rows();
  HP_REQUIRE(y.size() == n && out.size() == n,
             "Cholesky::solve_upper_into: dimension mismatch");
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) acc -= l(k, ii) * out[k];
    out[ii] = acc / l(ii, ii);
  }
}

Vector Cholesky::solve(const Vector& b) const {
  return solve_upper(solve_lower(b));
}

double Cholesky::log_det(const Matrix& l) noexcept {
  double acc = 0.0;
  for (std::size_t i = 0; i < l.rows(); ++i) acc += std::log(l(i, i));
  return 2.0 * acc;
}

}  // namespace hp::linalg
