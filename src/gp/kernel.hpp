#pragma once
// Covariance kernels for Gaussian-process regression. Spearmint (the tool
// HyperPower builds on) defaults to a Matern 5/2 kernel with automatic
// relevance determination (ARD) length-scales, which is the one kernel
// provided; the Kernel interface is the seam for another functional form.

#include <memory>
#include <span>
#include <stdexcept>
#include <string>
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

/// Abstract stationary covariance function k(x, x').
class Kernel {
 public:
  virtual ~Kernel() = default;

  /// Covariance between two points given as raw coordinate spans — the
  /// allocation-free core used by the cached/batched Gram assemblers.
  /// Throws std::invalid_argument on dimension mismatch between the points.
  [[nodiscard]] virtual double eval(std::span<const double> a,
                                    std::span<const double> b) const = 0;

  /// Covariance between two points; forwards to eval().
  [[nodiscard]] double operator()(const linalg::Vector& a,
                                  const linalg::Vector& b) const {
    return eval(std::span<const double>(a.raw()),
                std::span<const double>(b.raw()));
  }

  /// k(x, x) — for stationary kernels this is the signal variance.
  [[nodiscard]] virtual double diagonal_value() const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual const KernelParams& params() const = 0;
  /// Clone with different hyper-parameters (same functional form).
  [[nodiscard]] virtual std::unique_ptr<Kernel> with_params(
      KernelParams params) const = 0;
  [[nodiscard]] virtual std::unique_ptr<Kernel> clone() const = 0;
};

/// Matern nu=5/2 (Spearmint's default):
/// sigma_f^2 * (1 + sqrt(5) r + 5 r^2 / 3) exp(-sqrt(5) r).
class Matern52Kernel final : public Kernel {
 public:
  explicit Matern52Kernel(KernelParams params);
  [[nodiscard]] double eval(std::span<const double> a,
                            std::span<const double> b) const override;
  [[nodiscard]] double diagonal_value() const override;
  [[nodiscard]] std::string name() const override { return "matern52"; }
  [[nodiscard]] const KernelParams& params() const override { return params_; }
  [[nodiscard]] std::unique_ptr<Kernel> with_params(KernelParams params) const override;
  [[nodiscard]] std::unique_ptr<Kernel> clone() const override;

 private:
  KernelParams params_;
};

/// Scaled Euclidean distance r used by the ARD kernel above.
[[nodiscard]] double ard_distance(std::span<const double> a,
                                  std::span<const double> b,
                                  const KernelParams& params);

/// Vector convenience overload of ard_distance; forwards to the span form.
[[nodiscard]] double ard_distance(const linalg::Vector& a,
                                  const linalg::Vector& b,
                                  const KernelParams& params);

/// Builds the symmetric Gram matrix K(X, X) for rows of @p x.
[[nodiscard]] linalg::Matrix kernel_matrix(const Kernel& k,
                                           const linalg::Matrix& x);

/// Builds the cross-covariance vector k(X, x_star).
[[nodiscard]] linalg::Vector kernel_cross(const Kernel& k,
                                          const linalg::Matrix& x,
                                          const linalg::Vector& x_star);

/// Fills @p out with the cross-covariance k(X, x_star) without allocating —
/// the core of kernel_cross(), used by the batched prediction path.
/// Dimension agreement is an HP_REQUIRE contract.
void kernel_cross_into(const Kernel& k, const linalg::Matrix& x,
                       std::span<const double> x_star, std::span<double> out);

}  // namespace hp::gp
