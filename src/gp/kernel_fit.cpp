#include "gp/kernel_fit.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <span>
#include <stdexcept>
#include <vector>

#include "linalg/cholesky.hpp"
#include "obs/obs.hpp"
#include "stats/rng.hpp"

namespace hp::gp {

namespace {

constexpr double kMinusInf = -std::numeric_limits<double>::infinity();
constexpr double kInitialStep = 0.5;  ///< log-space step size
constexpr double kMinStep = 1e-3;     ///< a restart stops below this step
constexpr double kMinLog = -6.0;      ///< bounds on log(params)
constexpr double kMaxLog = 6.0;

/// Flat log-space parameter vector: [log sv, log l_1..l_D, log noise].
struct FlatParams {
  std::vector<double> values;
  std::size_t num_length_scales;

  /// Writes the kernel parameters into @p p, reusing its storage.
  void to_kernel_params(KernelParams& p) const {
    p.signal_variance = std::exp(values[0]);
    p.length_scales.resize(num_length_scales);
    for (std::size_t d = 0; d < num_length_scales; ++d) {
      p.length_scales[d] = std::exp(values[1 + d]);
    }
  }
  [[nodiscard]] double noise_variance(double min_noise) const {
    return std::max(min_noise, std::exp(values.back()));
  }
};

/// The GP's factorization histogram, shared with GaussianProcess.
obs::Histogram& cholesky_seconds() {
  static obs::Histogram& histogram = obs::metrics().histogram("gp.cholesky_s");
  return histogram;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// r2[p + j] for j < kLanes: the pair's scaled squares summed from 0.0 over
/// ascending d (scaled holds dimension d's at [d * pairs]), with the
/// accumulators in registers.
template <std::size_t kLanes>
void sum_over_dimensions(const double* scaled, std::size_t dim,
                         std::size_t pairs, std::size_t p, double* r2) {
  double acc[kLanes] = {};
  for (std::size_t d = 0; d < dim; ++d) {
    const double* sq = scaled + d * pairs + p;
    for (std::size_t j = 0; j < kLanes; ++j) acc[j] += sq[j];
  }
  for (std::size_t j = 0; j < kLanes; ++j) r2[p + j] = acc[j];
}

}  // namespace

void KernelFitOptions::validate() const {
  if (!std::isfinite(min_noise_variance) || min_noise_variance < 0.0) {
    throw std::invalid_argument(
        "KernelFitOptions: min_noise_variance must be finite and >= 0");
  }
}

LmlEvaluator::LmlEvaluator(const linalg::Matrix& x, const linalg::Vector& y)
    : n_(x.rows()),
      dim_(x.cols()),
      pairs_(n_ * (n_ - 1) / 2),
      diffs_(dim_ * pairs_),
      scaled_(dim_ * pairs_),
      length_scales_(dim_, std::numeric_limits<double>::quiet_NaN()),
      r2_(pairs_, 0.0),
      gram_(pairs_),
      signal_variance_(std::numeric_limits<double>::quiet_NaN()),
      factor_(n_, n_),
      forward_(n_),
      alpha_(n_) {
  if (n_ == 0 || n_ != y.size()) {
    throw std::invalid_argument("LmlEvaluator: bad dataset");
  }
  std::size_t p = 0;
  for (std::size_t r = 1; r < n_; ++r) {
    for (std::size_t c = 0; c < r; ++c, ++p) {
      for (std::size_t d = 0; d < dim_; ++d) {
        diffs_[d * pairs_ + p] = x(c, d) - x(r, d);
      }
    }
  }
  // GaussianProcess::fit's constant mean and centred targets.
  const double mean = y.mean();
  centered_.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) centered_[i] = y[i] - mean;
}

double LmlEvaluator::lml(const KernelParams& params, double noise_variance) {
  const std::vector<double>& ls = params.length_scales;
  if (ls.size() != 1 && ls.size() != dim_) {
    throw std::invalid_argument(
        "LmlEvaluator: length-scale count must be 1 or match the dimension");
  }
  // Where the Matern52Kernel or GaussianProcess constructor would throw.
  const double sv = params.signal_variance;
  if (!(sv > 0.0) || !std::isfinite(sv) || noise_variance < 0.0) {
    return kMinusInf;
  }
  for (double l : ls) {
    if (!(l > 0.0) || !std::isfinite(l)) return kMinusInf;
  }

  // A dimension is rescaled only when its length scale changed, and r^2 is
  // then summed from 0.0 over ascending d, as ard_distance() sums it.
  bool moved = false;
  for (std::size_t d = 0; d < dim_; ++d) {
    const double l = params.length_scale(d);
    if (same_bits(l, length_scales_[d])) continue;
    length_scales_[d] = l;
    moved = true;
    const double* diff = diffs_.data() + d * pairs_;
    double* sq = scaled_.data() + d * pairs_;
    for (std::size_t p = 0; p < pairs_; ++p) {
      const double t = diff[p] / l;
      sq[p] = t * t;
    }
  }
  if (moved) {
    std::size_t p = 0;
    for (; p + 8 <= pairs_; p += 8) {
      sum_over_dimensions<8>(scaled_.data(), dim_, pairs_, p, r2_.data());
    }
    for (; p < pairs_; ++p) {
      sum_over_dimensions<1>(scaled_.data(), dim_, pairs_, p, r2_.data());
    }
  }
  if (moved || !same_bits(sv, signal_variance_)) {
    signal_variance_ = sv;
    for (std::size_t p = 0; p < pairs_; ++p) {
      gram_[p] = matern52(sv, std::sqrt(r2_[p]));
    }
  }

  // Cholesky::with_jitter() on the noisy Gram, in the reused buffer.
  obs::ScopedTimer chol_timer("gp.cholesky", &cholesky_seconds());
  const double diagonal = sv + noise_variance;
  bool factored = factor(diagonal);
  if (!factored) {
    double max_abs = std::abs(diagonal);
    for (double k : gram_) max_abs = std::max(max_abs, std::abs(k));
    double jitter =
        linalg::Cholesky::kInitialJitter * std::max(1.0, max_abs);
    for (int attempt = 0;
         attempt < linalg::Cholesky::kJitterAttempts && !factored;
         ++attempt) {
      factored = factor(diagonal + jitter);
      jitter *= 10.0;
    }
  }
  chol_timer.stop();
  if (!factored) return kMinusInf;

  // GaussianProcess::log_marginal_likelihood()'s terms, in its order.
  linalg::Cholesky::solve_lower_into(factor_, centered_, forward_);
  linalg::Cholesky::solve_upper_into(factor_, forward_, alpha_);
  const double data_fit =
      -0.5 * linalg::dot(std::span<const double>(centered_),
                         std::span<const double>(alpha_));
  const double complexity = -0.5 * linalg::Cholesky::log_det(factor_);
  const double norm = -0.5 * static_cast<double>(n_) *
                      std::log(2.0 * std::numbers::pi);
  const double lml = data_fit + complexity + norm;
  return std::isfinite(lml) ? lml : kMinusInf;
}

bool LmlEvaluator::factor(double diagonal) {
  const double* row = gram_.data();
  for (std::size_t r = 0; r < n_; ++r) {
    std::copy(row, row + r, &factor_(r, 0));
    factor_(r, r) = diagonal;
    row += r;
  }
  return linalg::Cholesky::factorize(factor_);
}

KernelFitResult fit_kernel_by_ml(GaussianProcess& gp, const linalg::Matrix& x,
                                 const linalg::Vector& y,
                                 const KernelFitOptions& options) {
  if (x.rows() == 0 || x.rows() != y.size()) {
    throw std::invalid_argument("fit_kernel_by_ml: bad dataset");
  }
  options.validate();
  const KernelParams& start = gp.kernel().params();
  if (start.length_scales.size() != 1 &&
      start.length_scales.size() != x.cols()) {
    throw std::invalid_argument(
        "fit_kernel_by_ml: length-scale count must be 1 or match the "
        "dimension");
  }
  const std::size_t num_ls = x.cols();

  stats::Rng rng(options.seed);
  LmlEvaluator evaluator(x, y);
  KernelParams probe;
  int evaluations = 0;

  // Objective: the LML at the candidate parameters; -inf for numerically
  // infeasible settings.
  const auto evaluate = [&](const FlatParams& fp) -> double {
    ++evaluations;
    fp.to_kernel_params(probe);
    return evaluator.lml(probe,
                         fp.noise_variance(options.min_noise_variance));
  };

  const auto clamp_log = [](double v) {
    return std::min(kMaxLog, std::max(kMinLog, v));
  };

  // Incumbent start: current kernel parameters (broadcast length scales).
  FlatParams best;
  best.num_length_scales = num_ls;
  best.values.push_back(clamp_log(std::log(start.signal_variance)));
  for (std::size_t d = 0; d < num_ls; ++d) {
    best.values.push_back(clamp_log(std::log(start.length_scale(
        start.length_scales.size() == 1 ? 0 : d))));
  }
  best.values.push_back(clamp_log(
      std::log(std::max(gp.noise_variance(), options.min_noise_variance))));
  double best_lml = evaluate(best);

  for (int restart = 0; restart <= options.num_restarts; ++restart) {
    FlatParams current = best;
    if (restart > 0) {
      for (double& v : current.values) {
        v = clamp_log(rng.uniform(kMinLog / 2.0, kMaxLog / 2.0));
      }
    }
    double current_lml = evaluate(current);
    double step = kInitialStep;
    for (int iter = 0; iter < options.iterations_per_restart; ++iter) {
      if (step < kMinStep) break;
      bool improved = false;
      // Randomized coordinate descent: try +/- step on each coordinate in a
      // random order, keep the first improvement.
      for (std::size_t c : rng.permutation(current.values.size())) {
        const double from = current.values[c];
        for (double direction : {+1.0, -1.0}) {
          const double to = clamp_log(from + direction * step);
          if (to == from) continue;
          current.values[c] = to;
          const double lml = evaluate(current);
          if (lml > current_lml) {
            current_lml = lml;
            improved = true;
            break;
          }
          current.values[c] = from;
        }
        if (improved) break;
      }
      if (!improved) step *= 0.5;
    }
    if (current_lml > best_lml) {
      best = current;
      best_lml = current_lml;
    }
  }

  if (!std::isfinite(best_lml)) {
    throw std::runtime_error(
        "fit_kernel_by_ml: no feasible kernel parameters found");
  }

  KernelFitResult result;
  best.to_kernel_params(result.params);
  result.noise_variance = best.noise_variance(options.min_noise_variance);
  result.log_marginal_likelihood = best_lml;
  result.evaluations = evaluations;

  // A fresh GP with the fitted kernel and noise: one full factorization.
  gp = GaussianProcess(Matern52Kernel(result.params), result.noise_variance);
  gp.fit(x, y);
  return result;
}

}  // namespace hp::gp
