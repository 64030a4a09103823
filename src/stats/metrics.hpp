#pragma once
// Regression error metrics. The paper reports the quality of its power and
// memory predictors as Root Mean Square *Percentage* Error (RMSPE, Table 1),
// so that metric is first-class here.

#include <span>

namespace hp::stats {

/// Root Mean Square Error.
[[nodiscard]] double rmse(std::span<const double> actual,
                          std::span<const double> predicted);

/// Root Mean Square Percentage Error, in percent:
/// sqrt(mean(((actual - predicted)/actual)^2)) * 100.
/// Throws std::invalid_argument if any actual value is zero.
[[nodiscard]] double rmspe(std::span<const double> actual,
                           std::span<const double> predicted);

/// Mean Absolute Error.
[[nodiscard]] double mae(std::span<const double> actual,
                         std::span<const double> predicted);

/// Coefficient of determination R^2 (1 - RSS/TSS); can be negative for a
/// model worse than the mean predictor.
[[nodiscard]] double r_squared(std::span<const double> actual,
                               std::span<const double> predicted);

}  // namespace hp::stats
