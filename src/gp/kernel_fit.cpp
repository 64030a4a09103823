#include "gp/kernel_fit.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "stats/rng.hpp"

namespace hp::gp {

namespace {

/// Flat log-space parameter vector: [log sv, log l_1..l_D, (log noise)].
struct FlatParams {
  std::vector<double> values;
  std::size_t num_length_scales;
  bool has_noise;

  [[nodiscard]] KernelParams to_kernel_params() const {
    KernelParams p;
    p.signal_variance = std::exp(values[0]);
    p.length_scales.resize(num_length_scales);
    for (std::size_t d = 0; d < num_length_scales; ++d) {
      p.length_scales[d] = std::exp(values[1 + d]);
    }
    return p;
  }
  [[nodiscard]] double noise_variance(double min_noise) const {
    if (!has_noise) return min_noise;
    return std::max(min_noise, std::exp(values.back()));
  }
};

}  // namespace

KernelFitResult fit_kernel_by_ml(GaussianProcess& gp, const linalg::Matrix& x,
                                 const linalg::Vector& y,
                                 const KernelFitOptions& options) {
  if (x.rows() == 0 || x.rows() != y.size()) {
    throw std::invalid_argument("fit_kernel_by_ml: bad dataset");
  }
  const KernelParams& start = gp.kernel().params();
  const std::size_t num_ls = start.length_scales.size() == 1
                                 ? x.cols()
                                 : start.length_scales.size();

  stats::Rng rng(options.seed);
  int evaluations = 0;

  // Objective: LML of a fresh GP with the candidate parameters. Returns
  // -inf for numerically infeasible parameter settings.
  const auto evaluate = [&](const FlatParams& fp) -> double {
    ++evaluations;
    try {
      auto kernel = gp.kernel().with_params(fp.to_kernel_params());
      GaussianProcess probe(*kernel,
                            fp.noise_variance(options.min_noise_variance));
      probe.fit(x, y);
      const double lml = probe.log_marginal_likelihood();
      return std::isfinite(lml) ? lml : -std::numeric_limits<double>::infinity();
    } catch (const std::exception&) {
      return -std::numeric_limits<double>::infinity();
    }
  };

  const auto clamp_log = [&](double v) {
    return std::min(options.max_log, std::max(options.min_log, v));
  };

  // Incumbent start: current kernel parameters (broadcast length scales).
  FlatParams best;
  best.num_length_scales = num_ls;
  best.has_noise = options.fit_noise;
  best.values.push_back(clamp_log(std::log(start.signal_variance)));
  for (std::size_t d = 0; d < num_ls; ++d) {
    best.values.push_back(clamp_log(std::log(start.length_scale(
        start.length_scales.size() == 1 ? 0 : d))));
  }
  if (options.fit_noise) {
    best.values.push_back(clamp_log(
        std::log(std::max(gp.noise_variance(), options.min_noise_variance))));
  }
  double best_lml = evaluate(best);

  for (int restart = 0; restart <= options.num_restarts; ++restart) {
    FlatParams current = best;
    if (restart > 0) {
      for (double& v : current.values) {
        v = clamp_log(rng.uniform(options.min_log / 2.0, options.max_log / 2.0));
      }
    }
    double current_lml = evaluate(current);
    double step = options.initial_step;
    for (int iter = 0; iter < options.iterations_per_restart; ++iter) {
      if (step < options.min_step) break;
      bool improved = false;
      // Randomized coordinate descent: try +/- step on each coordinate in a
      // random order, keep the first improvement.
      for (std::size_t c : rng.permutation(current.values.size())) {
        for (double direction : {+1.0, -1.0}) {
          FlatParams candidate = current;
          candidate.values[c] = clamp_log(candidate.values[c] + direction * step);
          if (candidate.values[c] == current.values[c]) continue;
          const double lml = evaluate(candidate);
          if (lml > current_lml) {
            current = candidate;
            current_lml = lml;
            improved = true;
            break;
          }
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
  result.params = best.to_kernel_params();
  result.noise_variance = best.noise_variance(options.min_noise_variance);
  result.log_marginal_likelihood = best_lml;
  result.evaluations = evaluations;

  // A fresh GP with the fitted kernel and noise: one full factorization.
  gp = GaussianProcess(*gp.kernel().with_params(result.params),
                       result.noise_variance);
  gp.fit(x, y);
  return result;
}

}  // namespace hp::gp
