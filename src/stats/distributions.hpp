#pragma once
// Standard-normal density and CDF, plus the closed-form Expected
// Improvement helper used by every acquisition function in src/core.

namespace hp::stats {

/// Standard normal probability density function.
[[nodiscard]] double normal_pdf(double x) noexcept;

/// Standard normal cumulative distribution function (via erfc; accurate to
/// machine precision over the full range).
[[nodiscard]] double normal_cdf(double x) noexcept;

/// Closed-form Expected Improvement for a *minimization* problem:
/// EI = E[max(best - Y, 0)] where Y ~ N(mean, sd^2).
/// For sd == 0 this degenerates to max(best - mean, 0).
[[nodiscard]] double expected_improvement(double mean, double sd,
                                          double best) noexcept;

/// P(Y <= threshold) for Y ~ N(mean, sd^2); sd == 0 degenerates to a step.
[[nodiscard]] double probability_below(double mean, double sd,
                                       double threshold) noexcept;

}  // namespace hp::stats
