#pragma once
// Kernel hyper-parameter selection by maximizing the log marginal
// likelihood. Spearmint integrates hyper-parameters out with slice
// sampling; for a deterministic, dependency-free reproduction we use
// multi-start randomized coordinate search in log-space (type-II maximum
// likelihood), which is the other standard choice (GPML, scikit-learn).

#include <cstdint>
#include <memory>
#include <vector>

#include "gp/gaussian_process.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace hp::parallel {
class ThreadPool;
}  // namespace hp::parallel

namespace hp::gp {

/// Search configuration for maximum-likelihood kernel fitting. The search
/// itself is fixed: log-space steps start at 0.5 and a restart stops once
/// they shrink below 1e-3, every log-parameter stays in [-6, 6], and the
/// noise variance is fitted along with the kernel parameters.
struct KernelFitOptions {
  int num_restarts = 4;          ///< random restarts (plus the incumbent start)
  int iterations_per_restart = 40;
  double min_noise_variance = 1e-8;  ///< floor on the fitted noise variance
  std::uint64_t seed = 2018;

  /// Throws std::invalid_argument unless num_restarts and
  /// iterations_per_restart are >= 0 and min_noise_variance is finite and
  /// >= 0.
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

  /// A fresh evaluator of the same dataset. It shares the read-only
  /// pairwise differences and centred targets and has its own caches and
  /// scratch, so the two may evaluate on different threads at once. It
  /// reads nothing lml() writes, so it may be called while this evaluator
  /// evaluates on another thread.
  [[nodiscard]] LmlEvaluator sibling() const;

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

  /// What siblings share and never write.
  struct Dataset {
    std::size_t n = 0;
    std::size_t dim = 0;
    /// x_c[d] - x_r[d] at [d * pairs_ + pair], the sign kernel_matrix()
    /// uses.
    std::vector<double> diffs;
    std::vector<double> centered;  ///< y - mean(y)
  };

  /// Throws std::invalid_argument on an empty or mismatched dataset.
  [[nodiscard]] static std::shared_ptr<const Dataset> make_dataset(
      const linalg::Matrix& x, const linalg::Vector& y);
  /// Empty caches and scratch over @p dataset.
  explicit LmlEvaluator(std::shared_ptr<const Dataset> dataset);

  std::size_t n_;
  std::size_t dim_;
  std::size_t pairs_;  ///< n(n-1)/2; pair (c, r), c < r, is r(r-1)/2 + c
  std::shared_ptr<const Dataset> dataset_;
  /// ((x_c[d] - x_r[d]) / l_d)^2 for length_scales_[d], diffs' layout.
  std::vector<double> scaled_;
  std::vector<double> length_scales_;  ///< NaN until first seen
  std::vector<double> r2_;             ///< sum over ascending d of scaled_
  std::vector<double> gram_;           ///< matern52 at r2_, per pair
  double signal_variance_;             ///< behind gram_; NaN until first
  linalg::Matrix factor_;
  std::vector<double> forward_;        ///< L^{-1} centered
  std::vector<double> alpha_;          ///< L^{-T} forward_
};

/// Maximizes the LML of the Matern 5/2 kernel (Matern52Kernel) on
/// (@p x, @p y), starting from @p gp's kernel parameters and noise, and
/// installs the best hyper-parameters into @p gp (which ends up fitted on
/// the data). With a @p pool that has workers, the restarts run
/// speculatively on it, worker_count() + 1 at a time, one "gp.fit_restart"
/// span each; the result, `evaluations` included, is bit for bit the
/// serial search's, which is what runs with no pool or zero workers. A
/// restart that stopped early makes the wave discard the restarts after
/// it, so their probes are extra "gp.cholesky" spans. Throws
/// std::invalid_argument on an empty/mismatched dataset, on a kernel whose
/// length-scale count is neither 1 nor x.cols(), and on options that fail
/// KernelFitOptions::validate().
KernelFitResult fit_kernel_by_ml(GaussianProcess& gp, const linalg::Matrix& x,
                                 const linalg::Vector& y,
                                 const KernelFitOptions& options = {},
                                 parallel::ThreadPool* pool = nullptr);

}  // namespace hp::gp
