#pragma once
// Gaussian-process regression: exact posterior inference with a Cholesky
// factor of the noisy kernel matrix, as used by the surrogate model M in the
// paper's Bayesian-optimization loop (Section 3.1):
//   f | X ~ N(m, K),  y | f, sigma^2 ~ N(f, sigma^2 I).

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "gp/kernel.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace hp::gp {

/// Posterior predictive distribution at one query point.
struct Prediction {
  double mean = 0.0;
  double variance = 0.0;  ///< Latent-function variance (noise excluded).
  [[nodiscard]] double stddev() const noexcept;
};

/// How the last fit() obtained its Cholesky factor (see DESIGN.md par.13).
/// Every kind produces bit-identical state to kFull; the incremental kinds
/// just skip redundant kernel evaluations and factorization work.
enum class RefitKind {
  kNone,       ///< not fitted: never, or the last fit() failed to factorize
  kFull,       ///< Gram matrix + factorization from scratch
  kReused,     ///< same inputs: factor kept, only alpha recomputed
  kExtended,   ///< inputs grew by appended rows: O(n^2) bordered update
  kTruncated,  ///< inputs shrank to a prefix: leading-block copy
};

/// Stable literal name of a refit kind — trace-span annotation friendly
/// (the tracer stores the pointer, so the value must be a static string).
[[nodiscard]] constexpr const char* refit_kind_name(RefitKind kind) noexcept {
  switch (kind) {
    case RefitKind::kNone:
      return "none";
    case RefitKind::kFull:
      return "full";
    case RefitKind::kReused:
      return "reused";
    case RefitKind::kExtended:
      return "extended";
    case RefitKind::kTruncated:
      return "truncated";
  }
  return "unknown";
}

/// Caller-owned memory of GaussianProcess::predict_block(), kept between
/// calls: the block's queries (dimension-major), the n x B cross-covariance
/// K*, its forward-solved copy V = L^{-1} K*, and the factor-row stamps
/// they were computed against. A call on the same queries recomputes K* and
/// V only for the rows whose stamps changed since the previous call
/// (DESIGN.md par.13); any other call recomputes every row. A cache serves
/// one block at a time: blocks scored concurrently each need their own.
class PredictionCache {
 private:
  friend class GaussianProcess;
  std::size_t width_ = 0;
  std::vector<double> queries_;  ///< dim x width, queries_[d * width + b]
  std::vector<double> cross_;    ///< K*, n x width
  std::vector<double> solved_;   ///< V, n x width
  std::vector<std::uint64_t> stamps_;
};

/// Exact GP regressor. Construct once per dataset (refits on every
/// observation update, matching the sequential BO loop sizes of tens to a
/// few hundred points).
class GaussianProcess {
 public:
  /// @param kernel covariance function.
  /// @param noise_variance observation noise sigma^2 (>= 0).
  GaussianProcess(Matern52Kernel kernel, double noise_variance);

  /// Fits the posterior to inputs @p x (one row per observation) and
  /// targets @p y. Internally centres the targets on their mean (a constant
  /// mean function). Throws std::invalid_argument on shape mismatch or an
  /// empty dataset, leaving the GP as it was, and core::ContractViolation
  /// (HP_ENFORCE) if the kernel matrix cannot be factorized even with
  /// jitter.
  ///
  /// When @p x relates to the previously fitted inputs by bitwise row
  /// comparison — identical, extended by appended rows, or truncated to a
  /// leading prefix — and the current factor is jitter-free, the refit keeps
  /// that factor and updates it incrementally (O(n^2) instead of O(n^3)),
  /// evaluating only the appended rows' kernel values, with bit-identical
  /// results. The constant-liar push/pop and the one-observation-per-round
  /// BO loop hit these paths on every call; last_refit_kind() reports which
  /// path ran.
  ///
  /// A fit that fails to factorize leaves the GP unfitted, with no data:
  /// fitted() is false, predict() throws, and the next fit is a full one.
  void fit(linalg::Matrix x, linalg::Vector y);

  /// True once fit() has succeeded.
  [[nodiscard]] bool fitted() const noexcept { return chol_.has_value(); }

  /// Which path the most recent refit took (kNone before the first fit).
  /// Exposed so tests can assert the incremental paths actually engage.
  [[nodiscard]] RefitKind last_refit_kind() const noexcept {
    return last_refit_kind_;
  }

  /// Posterior predictive mean/variance at @p x_star: predict_block()'s
  /// arithmetic on one query, with nothing cached. Throws std::logic_error
  /// if not fitted and std::invalid_argument on a query of the wrong
  /// dimension.
  [[nodiscard]] Prediction predict(const linalg::Vector& x_star) const;

  /// Posterior predictive mean/variance at every query: out[b] for
  /// queries[b]. Works on the whole block at once (cross-covariance block,
  /// means, one forward substitution over all queries, variances), with
  /// each query taking exactly the operations of a lone prediction, so the
  /// result does not depend on the block it was predicted in, nor on what
  /// @p cache held. When @p cache last served the same queries, the leading
  /// rows of its cross-covariance and forward solve whose factor-row stamps
  /// still match are kept and only the rest are computed; the means and
  /// variances are always summed over every row. Throws std::logic_error if
  /// not fitted and std::invalid_argument on a query of the wrong
  /// dimension; out.size() == queries.size() is an HP_REQUIRE contract.
  void predict_block(std::span<const std::span<const double>> queries,
                     PredictionCache& cache, std::span<Prediction> out) const;

  /// Log marginal likelihood of the training targets under the current
  /// kernel/noise; the objective maximized by kernel fitting.
  [[nodiscard]] double log_marginal_likelihood() const;

  [[nodiscard]] const Matern52Kernel& kernel() const noexcept {
    return kernel_;
  }
  [[nodiscard]] double noise_variance() const noexcept { return noise_variance_; }
  [[nodiscard]] std::size_t num_observations() const noexcept;
  [[nodiscard]] double target_mean() const noexcept { return y_mean_; }

 private:
  /// Classifies how @p x relates to the currently fitted inputs; kFull
  /// whenever the factor cannot be reused (none, jittered, shape mismatch,
  /// or differing rows).
  [[nodiscard]] RefitKind classify_refit(const linalg::Matrix& x) const;

  void refit(RefitKind kind);
  /// Builds the Gram matrix and factors it from scratch.
  void refit_full();
  /// Borders the factor with the appended rows of x_; returns false when a
  /// bordered pivot fails (caller falls back to refit_full(), whose jitter
  /// retry reproduces the historical behaviour).
  [[nodiscard]] bool try_extend_factor();
  /// Shrinks the factor to the leading x_.rows() block.
  void shrink_factor();
  /// Gives rows [first, n) fresh stamps from the process-wide counter and
  /// drops the stamps of rows past n.
  void stamp_rows(std::size_t first);
  /// The prediction arithmetic of predict() and predict_block(): fills rows
  /// [first_row, n) of the n x width cross-covariance @p cross and of its
  /// forward solve @p solved (the rows above must already hold theirs) for
  /// @p width queries stored dimension-major in @p qt, and sums the means
  /// and variances over every row into @p out. @p solved may be @p cross
  /// itself, solved in place after the means are summed.
  void predict_rows(std::span<const double> qt, std::size_t width,
                    std::span<double> cross, std::span<double> solved,
                    std::size_t first_row, std::span<Prediction> out) const;

  Matern52Kernel kernel_;
  double noise_variance_;
  linalg::Matrix x_;
  linalg::Vector y_;         ///< raw targets
  double y_mean_ = 0.0;      ///< constant mean function value
  std::optional<linalg::Cholesky> chol_;
  linalg::Vector alpha_;     ///< K_y^{-1} (y - mean)
  /// One stamp per factor row, unique in the process: a row keeps its stamp
  /// while its x_ row and its row of the factor stay bitwise the same, so
  /// a PredictionCache row computed against the stamp is still valid.
  std::vector<std::uint64_t> row_stamps_;
  RefitKind last_refit_kind_ = RefitKind::kNone;
};

}  // namespace hp::gp
