#include "gp/kernel_fit.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numbers>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/contracts.hpp"
#include "linalg/cholesky.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"
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

double clamp_log(double v) { return std::min(kMaxLog, std::max(kMinLog, v)); }

/// A random restart's start: every log-parameter drawn afresh.
void draw_start(FlatParams& start, stats::Rng& rng) {
  for (double& v : start.values) {
    v = clamp_log(rng.uniform(kMinLog / 2.0, kMaxLog / 2.0));
  }
}

/// Where one restart's coordinate search ended.
struct Restart {
  FlatParams params;
  double lml = kMinusInf;
  int evaluations = 0;
  /// It ran iterations_per_restart iterations, so it drew one permutation
  /// per iteration and left the stream where a full restart leaves it.
  bool ran_every_iteration = false;
};

/// Restart @p index of the search: from @p start for restart 0, else from
/// fresh draws, with @p rng at the restart's start state and @p evaluator
/// to itself. @p span_key tells apart the spans of one fit's restarts.
Restart run_restart(int index, const FlatParams& start, stats::Rng& rng,
                    LmlEvaluator& evaluator, const KernelFitOptions& options,
                    std::uint64_t span_key) {
  obs::ScopedTimer span("gp.fit_restart", span_key);
  span.trace_arg({"restart", index});
  Restart out;
  out.params = start;
  if (index > 0) draw_start(out.params, rng);
  KernelParams probe;
  // Objective: the LML at the candidate parameters; -inf for numerically
  // infeasible settings.
  const auto evaluate = [&](const FlatParams& fp) -> double {
    ++out.evaluations;
    fp.to_kernel_params(probe);
    return evaluator.lml(probe, fp.noise_variance(options.min_noise_variance));
  };
  FlatParams& current = out.params;
  out.lml = evaluate(current);
  double step = kInitialStep;
  int iter = 0;
  for (; iter < options.iterations_per_restart; ++iter) {
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
        if (lml > out.lml) {
          out.lml = lml;
          improved = true;
          break;
        }
        current.values[c] = from;
      }
      if (improved) break;
    }
    if (!improved) step *= 0.5;
  }
  out.ran_every_iteration = iter == options.iterations_per_restart;
  return out;
}

/// Advances @p rng past the draws restart @p index takes when it runs
/// every iteration: its start values (index > 0), then one permutation of
/// @p num_values per iteration.
void skip_full_restart(int index, std::size_t num_values, int iterations,
                       stats::Rng& rng) {
  if (index > 0) {
    FlatParams scratch{std::vector<double>(num_values), 0};
    draw_start(scratch, rng);
  }
  for (int i = 0; i < iterations; ++i) (void)rng.permutation(num_values);
}

/// The GP's factorization counter, shared with GaussianProcess.
obs::Counter& cholesky_calls() {
  static obs::Counter& counter = obs::metrics().counter("gp.cholesky_calls");
  return counter;
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
  if (num_restarts < 0 || iterations_per_restart < 0) {
    throw std::invalid_argument(
        "KernelFitOptions: num_restarts and iterations_per_restart must be "
        ">= 0");
  }
  if (!std::isfinite(min_noise_variance) || min_noise_variance < 0.0) {
    throw std::invalid_argument(
        "KernelFitOptions: min_noise_variance must be finite and >= 0");
  }
}

std::shared_ptr<const LmlEvaluator::Dataset> LmlEvaluator::make_dataset(
    const linalg::Matrix& x, const linalg::Vector& y) {
  if (x.rows() == 0 || x.rows() != y.size()) {
    throw std::invalid_argument("LmlEvaluator: bad dataset");
  }
  auto dataset = std::make_shared<Dataset>();
  const std::size_t n = dataset->n = x.rows();
  const std::size_t dim = dataset->dim = x.cols();
  const std::size_t pairs = n * (n - 1) / 2;
  dataset->diffs.resize(dim * pairs);
  std::size_t p = 0;
  for (std::size_t r = 1; r < n; ++r) {
    for (std::size_t c = 0; c < r; ++c, ++p) {
      for (std::size_t d = 0; d < dim; ++d) {
        dataset->diffs[d * pairs + p] = x(c, d) - x(r, d);
      }
    }
  }
  // GaussianProcess::fit's constant mean and centred targets.
  const double mean = y.mean();
  dataset->centered.resize(n);
  for (std::size_t i = 0; i < n; ++i) dataset->centered[i] = y[i] - mean;
  return dataset;
}

LmlEvaluator::LmlEvaluator(const linalg::Matrix& x, const linalg::Vector& y)
    : LmlEvaluator(make_dataset(x, y)) {}

LmlEvaluator::LmlEvaluator(std::shared_ptr<const Dataset> dataset)
    : n_(dataset->n),
      dim_(dataset->dim),
      pairs_(n_ * (n_ - 1) / 2),
      dataset_(std::move(dataset)),
      scaled_(dim_ * pairs_),
      length_scales_(dim_, std::numeric_limits<double>::quiet_NaN()),
      r2_(pairs_, 0.0),
      gram_(pairs_),
      signal_variance_(std::numeric_limits<double>::quiet_NaN()),
      factor_(n_, n_),
      forward_(n_),
      alpha_(n_) {}

LmlEvaluator LmlEvaluator::sibling() const { return LmlEvaluator(dataset_); }

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
    const double* diff = dataset_->diffs.data() + d * pairs_;
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
  if (obs::metrics().enabled()) cholesky_calls().add(1);
  obs::ScopedTimer chol_timer("gp.cholesky");
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
  const std::vector<double>& centered = dataset_->centered;
  linalg::Cholesky::solve_lower_into(factor_, centered, forward_);
  linalg::Cholesky::solve_upper_into(factor_, forward_, alpha_);
  const double data_fit =
      -0.5 * linalg::dot(std::span<const double>(centered),
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
                                 const KernelFitOptions& options,
                                 parallel::ThreadPool* pool) {
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

  // One evaluator per thread that runs restarts. The first also scores
  // the incumbent; each other one is a sibling built by the first restart
  // that uses it, on that restart's thread.
  const int restarts = options.num_restarts + 1;
  const int threads =
      pool == nullptr ? 1 : static_cast<int>(pool->worker_count()) + 1;
  std::vector<std::optional<LmlEvaluator>> evaluators(
      static_cast<std::size_t>(std::min(threads, restarts)));
  LmlEvaluator& first_evaluator = evaluators.front().emplace(x, y);
  KernelParams probe;
  best.to_kernel_params(probe);
  double best_lml = first_evaluator.lml(
      probe, best.noise_variance(options.min_noise_variance));
  int evaluations = 1;

  // Restart r > 0 overwrites every start value with draws, so it depends
  // on the restarts before it only through the stream's position. A wave
  // runs one restart per thread at once, each from the stream position the
  // restarts before it leave when they run every iteration, which nearly
  // all do. The wave keeps its restarts in order up to and including the
  // first that stopped early: the later ones started from a mispredicted
  // position and run again in the next wave, from the stream the last kept
  // restart left. Every LML is a pure function of its parameters' bits, so
  // the kept restarts, reduced in restart order with strict >, give the
  // serial search's result and evaluation count. One thread means waves of
  // one restart: the serial search itself.
  stats::Rng rng(options.seed);
  std::uint64_t launched = 0;
  for (int first = 0; first < restarts;) {
    const int wave = std::min(threads, restarts - first);
    std::vector<stats::Rng> streams;
    streams.reserve(static_cast<std::size_t>(wave));
    streams.push_back(rng);
    for (int i = 1; i < wave; ++i) {
      stats::Rng next = streams.back();
      skip_full_restart(first + i - 1, best.values.size(),
                        options.iterations_per_restart, next);
      streams.push_back(next);
    }
    std::vector<Restart> outcomes(static_cast<std::size_t>(wave));
    const auto run = [&](std::size_t i) {
      if (!evaluators[i]) evaluators[i] = first_evaluator.sibling();
      outcomes[i] = run_restart(first + static_cast<int>(i), best, streams[i],
                                *evaluators[i], options, launched + i);
    };
    if (wave > 1) {
      pool->parallel_for(outcomes.size(), run);
    } else {
      run(0);
    }
    launched += outcomes.size();
    std::size_t kept = 0;
    while (kept < outcomes.size()) {
      const Restart& restart = outcomes[kept++];
      evaluations += restart.evaluations;
      if (restart.lml > best_lml) {
        best = restart.params;
        best_lml = restart.lml;
      }
      if (!restart.ran_every_iteration) break;
    }
    rng = streams[kept - 1];
    first += static_cast<int>(kept);
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
  // The installed GP's likelihood is the search's, bit for bit: that is
  // what lets a resume check a recorded fit by its likelihood.
  const bool installed = install_kernel_fit(gp, x, y, result);
  HP_ENFORCE(installed,
             "fit_kernel_by_ml: the installed GP's likelihood differs from "
             "the search's");
  return result;
}

bool install_kernel_fit(GaussianProcess& gp, const linalg::Matrix& x,
                        const linalg::Vector& y, const KernelFit& fit) {
  // A fresh GP with the fitted kernel and noise: one full factorization.
  gp = GaussianProcess(Matern52Kernel(fit.params), fit.noise_variance);
  gp.fit(x, y);
  return same_bits(gp.log_marginal_likelihood(), fit.log_marginal_likelihood);
}

}  // namespace hp::gp
