#include "linalg/qr.hpp"

#include <cmath>
#include <stdexcept>

namespace hp::linalg {

HouseholderQr::HouseholderQr(Matrix a)
    : qr_(std::move(a)), r_diag_(qr_.cols()), beta_(qr_.cols()) {
  const std::size_t m = qr_.rows();
  const std::size_t n = qr_.cols();
  if (m < n) {
    throw std::invalid_argument("HouseholderQr: need rows >= cols");
  }
  for (std::size_t k = 0; k < n; ++k) {
    double norm2 = 0.0;
    for (std::size_t i = k; i < m; ++i) norm2 += qr_(i, k) * qr_(i, k);
    const double norm = std::sqrt(norm2);
    if (norm == 0.0) {
      beta_[k] = 0.0;
      r_diag_[k] = 0.0;
      continue;
    }
    const double alpha = qr_(k, k) >= 0.0 ? -norm : norm;
    const double v0 = qr_(k, k) - alpha;
    double vtv = v0 * v0;
    for (std::size_t i = k + 1; i < m; ++i) vtv += qr_(i, k) * qr_(i, k);
    beta_[k] = vtv > 0.0 ? 2.0 / vtv : 0.0;
    qr_(k, k) = v0;  // Householder vector head; R(k,k) goes to r_diag_.
    r_diag_[k] = alpha;
    for (std::size_t j = k + 1; j < n; ++j) {
      double s = 0.0;
      for (std::size_t i = k; i < m; ++i) s += qr_(i, k) * qr_(i, j);
      s *= beta_[k];
      for (std::size_t i = k; i < m; ++i) qr_(i, j) -= s * qr_(i, k);
    }
  }
}

Vector HouseholderQr::apply_qt(Vector b) const {
  const std::size_t m = qr_.rows();
  const std::size_t n = qr_.cols();
  if (b.size() != m) {
    throw std::invalid_argument("HouseholderQr::apply_qt: dimension mismatch");
  }
  for (std::size_t k = 0; k < n; ++k) {
    if (beta_[k] == 0.0) continue;
    double s = 0.0;
    for (std::size_t i = k; i < m; ++i) s += qr_(i, k) * b[i];
    s *= beta_[k];
    for (std::size_t i = k; i < m; ++i) b[i] -= s * qr_(i, k);
  }
  return b;
}

Vector HouseholderQr::solve(const Vector& b) const {
  const std::size_t n = qr_.cols();
  const Vector qtb = apply_qt(b);
  const double rmax = [&] {
    double mx = 0.0;
    for (std::size_t i = 0; i < n; ++i) mx = std::max(mx, std::abs(r_diag_[i]));
    return mx;
  }();
  if (rmax == 0.0) {
    throw std::runtime_error("HouseholderQr::solve: zero matrix");
  }
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    if (std::abs(r_diag_[ii]) < 1e-13 * rmax) {
      throw std::runtime_error("HouseholderQr::solve: singular R");
    }
    double acc = qtb[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= qr_(ii, j) * x[j];
    x[ii] = acc / r_diag_[ii];
  }
  return x;
}

double HouseholderQr::diagonal_condition_estimate() const {
  const std::size_t n = qr_.cols();
  if (n == 0) return 1.0;
  double mn = std::abs(r_diag_[0]);
  double mx = mn;
  for (std::size_t i = 1; i < n; ++i) {
    const double v = std::abs(r_diag_[i]);
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  return mx == 0.0 ? 0.0 : mn / mx;
}

}  // namespace hp::linalg
