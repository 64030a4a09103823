#include "stats/descriptive.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace hp::stats {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const {
  if (n_ == 0) throw std::logic_error("RunningStats::mean: empty");
  return mean_;
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  if (n_ == 0) throw std::logic_error("RunningStats::min: empty");
  return min_;
}

double RunningStats::max() const {
  if (n_ == 0) throw std::logic_error("RunningStats::max: empty");
  return max_;
}

double mean(std::span<const double> xs) {
  if (xs.empty()) throw std::logic_error("mean: empty sample");
  double acc = 0.0;
  for (double x : xs) acc += x;
  return acc / static_cast<double>(xs.size());
}

double sample_stddev(std::span<const double> xs) {
  RunningStats rs;
  for (double x : xs) rs.add(x);
  return rs.stddev();
}

double geometric_mean(std::span<const double> xs) {
  if (xs.empty()) throw std::logic_error("geometric_mean: empty sample");
  double acc = 0.0;
  for (double x : xs) {
    if (x <= 0.0) {
      throw std::invalid_argument("geometric_mean: non-positive entry");
    }
    acc += std::log(x);
  }
  return std::exp(acc / static_cast<double>(xs.size()));
}

double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) throw std::logic_error("quantile: empty sample");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile: q outside [0,1]");
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double pearson_correlation(std::span<const double> xs,
                           std::span<const double> ys) {
  if (xs.size() != ys.size()) {
    throw std::invalid_argument("pearson_correlation: size mismatch");
  }
  if (xs.size() < 2) return 0.0;
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

}  // namespace hp::stats
