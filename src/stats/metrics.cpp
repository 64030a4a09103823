#include "stats/metrics.hpp"

#include <cmath>
#include <stdexcept>

#include "stats/descriptive.hpp"

namespace hp::stats {

namespace {
void require_paired(std::span<const double> a, std::span<const double> p,
                    const char* name) {
  if (a.size() != p.size()) {
    throw std::invalid_argument(std::string(name) + ": size mismatch");
  }
  if (a.empty()) {
    throw std::invalid_argument(std::string(name) + ": empty sample");
  }
}
}  // namespace

double rmse(std::span<const double> actual, std::span<const double> predicted) {
  require_paired(actual, predicted, "rmse");
  double acc = 0.0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const double d = actual[i] - predicted[i];
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(actual.size()));
}

double rmspe(std::span<const double> actual,
             std::span<const double> predicted) {
  require_paired(actual, predicted, "rmspe");
  double acc = 0.0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    if (actual[i] == 0.0) {
      throw std::invalid_argument("rmspe: actual value is zero");
    }
    const double d = (actual[i] - predicted[i]) / actual[i];
    acc += d * d;
  }
  return 100.0 * std::sqrt(acc / static_cast<double>(actual.size()));
}

double mae(std::span<const double> actual, std::span<const double> predicted) {
  require_paired(actual, predicted, "mae");
  double acc = 0.0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    acc += std::abs(actual[i] - predicted[i]);
  }
  return acc / static_cast<double>(actual.size());
}

double r_squared(std::span<const double> actual,
                 std::span<const double> predicted) {
  require_paired(actual, predicted, "r_squared");
  const double m = mean(actual);
  double rss = 0.0, tss = 0.0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const double r = actual[i] - predicted[i];
    const double t = actual[i] - m;
    rss += r * r;
    tss += t * t;
  }
  if (tss == 0.0) return rss == 0.0 ? 1.0 : 0.0;
  return 1.0 - rss / tss;
}

}  // namespace hp::stats
