#include "stats/distributions.hpp"

#include <cmath>
#include <numbers>

namespace hp::stats {

double normal_pdf(double x) noexcept {
  constexpr double inv_sqrt_2pi = 0.3989422804014326779399461;
  return inv_sqrt_2pi * std::exp(-0.5 * x * x);
}

double normal_cdf(double x) noexcept {
  return 0.5 * std::erfc(-x / std::numbers::sqrt2);
}

double expected_improvement(double mean, double sd, double best) noexcept {
  if (sd <= 0.0) return best > mean ? best - mean : 0.0;
  const double gamma = (best - mean) / sd;
  return sd * (gamma * normal_cdf(gamma) + normal_pdf(gamma));
}

double probability_below(double mean, double sd, double threshold) noexcept {
  if (sd <= 0.0) return mean <= threshold ? 1.0 : 0.0;
  return normal_cdf((threshold - mean) / sd);
}

}  // namespace hp::stats
