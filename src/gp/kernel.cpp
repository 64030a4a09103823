#include "gp/kernel.hpp"

#include <cmath>
#include <stdexcept>

#include "core/contracts.hpp"

namespace hp::gp {

void KernelParams::validate() const {
  if (signal_variance <= 0.0 || !std::isfinite(signal_variance)) {
    throw std::invalid_argument("KernelParams: signal_variance must be > 0");
  }
  if (length_scales.empty()) {
    throw std::invalid_argument("KernelParams: need at least one length scale");
  }
  for (double l : length_scales) {
    if (l <= 0.0 || !std::isfinite(l)) {
      throw std::invalid_argument("KernelParams: length scales must be > 0");
    }
  }
}

double ard_distance(std::span<const double> a, std::span<const double> b,
                    const KernelParams& params) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("ard_distance: dimension mismatch");
  }
  if (params.length_scales.size() != 1 &&
      params.length_scales.size() != a.size()) {
    throw std::invalid_argument(
        "ard_distance: length-scale count must be 1 or match the dimension");
  }
  double r2 = 0.0;
  for (std::size_t d = 0; d < a.size(); ++d) {
    const double diff = (a[d] - b[d]) / params.length_scale(d);
    r2 += diff * diff;
  }
  return std::sqrt(r2);
}

Matern52Kernel::Matern52Kernel(KernelParams params)
    : params_(std::move(params)) {
  params_.validate();
}

double Matern52Kernel::eval(std::span<const double> a,
                            std::span<const double> b) const {
  return matern52(params_.signal_variance, ard_distance(a, b, params_));
}

namespace {

/// Columns [b, b + kLanes) of a Matern 5/2 cross-covariance block, rows
/// [first_row, n): row i holds k(x_i, q_b). Each entry's r^2 is summed in a
/// register from 0.0 over ascending d, exactly as ard_distance() sums one
/// pair's, and then takes the matern52() closed form.
template <std::size_t kLanes>
void matern52_columns(const linalg::Matrix& x, const KernelParams& params,
                      const double* qt, std::size_t width, std::size_t b,
                      std::size_t first_row, double* out) {
  for (std::size_t i = first_row; i < x.rows(); ++i) {
    const std::span<const double> xi = x.row_span(i);
    double r2[kLanes] = {};
    for (std::size_t d = 0; d < xi.size(); ++d) {
      const double xd = xi[d];
      const double l = params.length_scale(d);
      const double* qd = qt + d * width + b;
      for (std::size_t j = 0; j < kLanes; ++j) {
        const double diff = (xd - qd[j]) / l;
        r2[j] += diff * diff;
      }
    }
    double* row = out + i * width + b;
    for (std::size_t j = 0; j < kLanes; ++j) {
      row[j] = matern52(params.signal_variance, std::sqrt(r2[j]));
    }
  }
}

}  // namespace

void Matern52Kernel::eval_block(const linalg::Matrix& x,
                                std::span<const double> qt, std::size_t width,
                                std::span<double> out,
                                std::size_t first_row) const {
  const std::size_t dim = x.cols();
  HP_REQUIRE(qt.size() == dim * width && out.size() == x.rows() * width &&
                 first_row <= x.rows(),
             "Matern52Kernel::eval_block: buffer sizes must match the shapes");
  if (params_.length_scales.size() != 1 &&
      params_.length_scales.size() != dim) {
    throw std::invalid_argument(
        "Matern52Kernel::eval_block: length-scale count must be 1 or match "
        "the dimension");
  }
  // Eight queries side by side, then the rest one by one.
  std::size_t b = 0;
  for (; b + 8 <= width; b += 8) {
    matern52_columns<8>(x, params_, qt.data(), width, b, first_row,
                        out.data());
  }
  for (; b < width; ++b) {
    matern52_columns<1>(x, params_, qt.data(), width, b, first_row,
                        out.data());
  }
}

linalg::Matrix kernel_matrix(const Matern52Kernel& k,
                             const linalg::Matrix& x) {
  const std::size_t n = x.rows();
  linalg::Matrix out(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<const double> xi = x.row_span(i);
    out(i, i) = k.diagonal_value();
    for (std::size_t j = i + 1; j < n; ++j) {
      const double v = k.eval(xi, x.row_span(j));
      out(i, j) = v;
      out(j, i) = v;
    }
  }
  return out;
}

}  // namespace hp::gp
