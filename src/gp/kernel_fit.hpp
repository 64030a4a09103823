#pragma once
// Kernel hyper-parameter selection by maximizing the log marginal
// likelihood. Spearmint integrates hyper-parameters out with slice
// sampling; for a deterministic, dependency-free reproduction we use
// multi-start randomized coordinate search in log-space (type-II maximum
// likelihood), which is the other standard choice (GPML, scikit-learn).

#include <cstdint>
#include <vector>

#include "gp/gaussian_process.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace hp::gp {

/// Search configuration for maximum-likelihood kernel fitting.
struct KernelFitOptions {
  int num_restarts = 4;          ///< random restarts (plus the incumbent start)
  int iterations_per_restart = 40;
  double initial_step = 0.5;     ///< log-space step size
  double min_step = 1e-3;        ///< stop when the step shrinks below this
  double min_log = -6.0;         ///< bounds on log(params)
  double max_log = 6.0;
  bool fit_noise = true;         ///< also optimize the noise variance
  double min_noise_variance = 1e-8;
  std::uint64_t seed = 2018;

  /// Throws std::invalid_argument unless min_log <= max_log, both are
  /// finite, exp(min_log) > 0 and exp(max_log) is finite (so every
  /// parameter the search can reach is a valid kernel parameter), and
  /// min_noise_variance is finite and >= 0.
  void validate() const;
};

/// Result of a kernel fit.
struct KernelFitResult {
  KernelParams params;
  double noise_variance = 0.0;
  double log_marginal_likelihood = 0.0;
  int evaluations = 0;  ///< number of LML evaluations performed
};

/// The kernel ML fit's objective: the log marginal likelihood of one
/// dataset under a Matern 5/2 kernel, evaluated at many hyper-parameter
/// settings. Built once per fit, it keeps what a move of one
/// log-parameter leaves unchanged: the pairwise input differences, each
/// dimension's scaled squares for the last length scale it saw, r^2 per
/// pair and the Gram. It refactors one reused buffer with
/// linalg::Cholesky::factorize().
class LmlEvaluator {
 public:
  /// Throws std::invalid_argument on an empty dataset or when
  /// x.rows() != y.size().
  LmlEvaluator(const linalg::Matrix& x, const linalg::Vector& y);

  /// Bit for bit what GaussianProcess(Matern52Kernel(params),
  /// noise_variance), fit on (x, y), reports as log_marginal_likelihood();
  /// -inf where that path throws (invalid parameters, negative noise, a
  /// matrix indefinite even with jitter) or gives a non-finite value.
  /// @p params must hold 1 or x.cols() length scales (std::invalid_argument
  /// otherwise). The factorization runs under a "gp.cholesky" span, as the
  /// GP's does.
  [[nodiscard]] double lml(const KernelParams& params, double noise_variance);

 private:
  /// Fills the buffer's lower triangle with the Gram and @p diagonal, then
  /// factors it in place; false when the matrix is not positive definite.
  [[nodiscard]] bool factor(double diagonal);

  std::size_t n_;
  std::size_t dim_;
  std::size_t pairs_;  ///< n(n-1)/2; pair (c, r), c < r, is r(r-1)/2 + c
  /// x_c[d] - x_r[d] at [d * pairs_ + pair], the sign kernel_matrix() uses.
  std::vector<double> diffs_;
  /// ((x_c[d] - x_r[d]) / l_d)^2 for length_scales_[d], same layout.
  std::vector<double> scaled_;
  std::vector<double> length_scales_;  ///< NaN until first seen
  std::vector<double> r2_;             ///< sum over ascending d of scaled_
  std::vector<double> gram_;           ///< matern52 at r2_, per pair
  double signal_variance_;             ///< behind gram_; NaN until first
  std::vector<double> centered_;       ///< y - mean(y)
  linalg::Matrix factor_;
  std::vector<double> forward_;        ///< L^{-1} centered_
  std::vector<double> alpha_;          ///< L^{-T} forward_
};

/// Maximizes the LML of the Matern 5/2 kernel (Matern52Kernel) on
/// (@p x, @p y), starting from @p gp's kernel parameters and noise, and
/// installs the best hyper-parameters into @p gp (which ends up fitted on
/// the data). Throws std::invalid_argument on an empty/mismatched dataset,
/// on a kernel whose length-scale count is neither 1 nor x.cols(), and on
/// options that fail KernelFitOptions::validate().
KernelFitResult fit_kernel_by_ml(GaussianProcess& gp, const linalg::Matrix& x,
                                 const linalg::Vector& y,
                                 const KernelFitOptions& options = {});

}  // namespace hp::gp
