#pragma once
// Descriptive statistics: streaming Welford accumulator and the summary
// helpers the experiment tables use (mean, std, geometric mean of speedups).

#include <cstddef>
#include <span>
#include <vector>

namespace hp::stats {

/// Numerically stable streaming mean/variance accumulator (Welford).
class RunningStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }
  /// Mean; throws std::logic_error if empty.
  [[nodiscard]] double mean() const;
  /// Unbiased sample variance; 0 when count < 2.
  [[nodiscard]] double variance() const;
  /// Unbiased sample standard deviation; 0 when count < 2.
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

[[nodiscard]] double mean(std::span<const double> xs);
[[nodiscard]] double sample_stddev(std::span<const double> xs);
/// Geometric mean; all entries must be > 0. Used for speedup aggregation,
/// matching the paper ("average speedup values are computed as the
/// geometric mean across all runs per case").
[[nodiscard]] double geometric_mean(std::span<const double> xs);
/// Median (by copy + nth_element); throws std::logic_error if empty.
[[nodiscard]] double median(std::vector<double> xs);
/// Linear-interpolated quantile for q in [0,1]; throws if empty.
[[nodiscard]] double quantile(std::vector<double> xs, double q);
/// Pearson correlation of two equal-length samples (0 if degenerate).
[[nodiscard]] double pearson_correlation(std::span<const double> xs,
                                         std::span<const double> ys);

}  // namespace hp::stats
