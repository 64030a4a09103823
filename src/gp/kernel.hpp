#pragma once
// The covariance kernel of Gaussian-process regression. Spearmint (the tool
// HyperPower builds on) defaults to a Matern 5/2 kernel with automatic
// relevance determination (ARD) length-scales, which is the one kernel
// provided.

#include <cmath>
#include <span>
#include <stdexcept>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace hp::gp {

/// Hyper-parameters shared by all stationary ARD kernels.
struct KernelParams {
  /// Signal variance sigma_f^2 (amplitude of function variation). Must be > 0.
  double signal_variance = 1.0;
  /// One positive length-scale per input dimension (ARD). A single entry is
  /// broadcast to all dimensions (isotropic kernel).
  std::vector<double> length_scales = {1.0};

  /// Validates positivity; throws std::invalid_argument on violation.
  void validate() const;
  /// Length-scale for dimension @p d (handles the broadcast case); throws
  /// std::out_of_range past the last ARD dimension. Defined here so every
  /// ard_distance term inlines it.
  [[nodiscard]] double length_scale(std::size_t d) const {
    if (length_scales.size() == 1) return length_scales[0];
    if (d >= length_scales.size()) {
      throw std::out_of_range(
          "KernelParams::length_scale: dimension out of range");
    }
    return length_scales[d];
  }
};

/// Matern nu=5/2 (Spearmint's default), a stationary covariance function
/// k(x, x'): sigma_f^2 * (1 + sqrt(5) r + 5 r^2 / 3) exp(-sqrt(5) r).
class Matern52Kernel {
 public:
  /// Throws std::invalid_argument when @p params fail validate().
  explicit Matern52Kernel(KernelParams params);

  /// Covariance between two points given as raw coordinate spans — the
  /// allocation-free core used by the Gram assemblers. Throws
  /// std::invalid_argument on dimension mismatch between the points.
  [[nodiscard]] double eval(std::span<const double> a,
                            std::span<const double> b) const;

  /// Cross-covariance block: out[i * width + b] = k(x_i, q_b) for the rows
  /// x_i of @p x (n x D) from @p first_row on and @p width queries stored
  /// dimension-major in @p qt (qt[d * width + b] = q_b[d]); @p out is the
  /// whole n x width block, and its rows before @p first_row are left as
  /// they are. Every entry matches eval(x_i, q_b) bit for bit. Throws
  /// std::invalid_argument when the ARD length scales do not fit D; buffer
  /// sizes and first_row <= n are an HP_REQUIRE contract.
  void eval_block(const linalg::Matrix& x, std::span<const double> qt,
                  std::size_t width, std::span<double> out,
                  std::size_t first_row) const;

  /// Covariance between two points; forwards to eval().
  [[nodiscard]] double operator()(const linalg::Vector& a,
                                  const linalg::Vector& b) const {
    return eval(std::span<const double>(a.raw()),
                std::span<const double>(b.raw()));
  }

  /// k(x, x) — for a stationary kernel this is the signal variance.
  [[nodiscard]] double diagonal_value() const noexcept {
    return params_.signal_variance;
  }

  [[nodiscard]] const KernelParams& params() const noexcept { return params_; }

 private:
  KernelParams params_;
};

/// Matern 5/2 covariance at scaled distance @p r:
/// sigma_f^2 * (1 + s + s^2 / 3) * exp(-s) with s = sqrt(5) r. The one
/// closed form behind Matern52Kernel::eval(), eval_block() and the kernel
/// ML fit's likelihood evaluator.
[[nodiscard]] inline double matern52(double signal_variance, double r) {
  const double s = std::sqrt(5.0) * r;
  return signal_variance * (1.0 + s + s * s / 3.0) * std::exp(-s);
}

/// Scaled Euclidean distance r used by the ARD kernel above.
[[nodiscard]] double ard_distance(std::span<const double> a,
                                  std::span<const double> b,
                                  const KernelParams& params);

/// Builds the symmetric Gram matrix K(X, X) for rows of @p x.
[[nodiscard]] linalg::Matrix kernel_matrix(const Matern52Kernel& k,
                                           const linalg::Matrix& x);

}  // namespace hp::gp
