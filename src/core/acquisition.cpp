#include "core/acquisition.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/contracts.hpp"
#include "stats/distributions.hpp"

namespace hp::core {

HardwareConstraints::HardwareConstraints(
    ConstraintBudgets budgets, std::optional<HardwareModel> power_model,
    std::optional<HardwareModel> memory_model)
    : budgets_(budgets),
      power_model_(std::move(power_model)),
      memory_model_(std::move(memory_model)) {}

bool HardwareConstraints::predicted_feasible(std::span<const double> z) const {
  if (budgets_.power_w && power_model_) {
    if (power_model_->predict(z) > *budgets_.power_w) return false;
  }
  if (budgets_.memory_mb && memory_model_) {
    if (memory_model_->predict(z) > *budgets_.memory_mb) return false;
  }
  return true;
}

double HardwareConstraints::feasibility_probability(
    std::span<const double> z) const {
  double prob = 1.0;
  if (budgets_.power_w && power_model_) {
    prob *= stats::probability_below(power_model_->predict(z),
                                     power_model_->residual_sd(),
                                     *budgets_.power_w);
  }
  if (budgets_.memory_mb && memory_model_) {
    prob *= stats::probability_below(memory_model_->predict(z),
                                     memory_model_->residual_sd(),
                                     *budgets_.memory_mb);
  }
  return prob;
}

bool HardwareConstraints::measured_feasible(
    std::optional<double> power_w, std::optional<double> memory_mb) const {
  if (budgets_.power_w && power_w && *power_w > *budgets_.power_w) {
    return false;
  }
  if (budgets_.memory_mb && memory_mb && *memory_mb > *budgets_.memory_mb) {
    return false;
  }
  return true;
}

namespace {

bool usable(const gp::GaussianProcess* model) {
  return model != nullptr && model->fitted();
}

/// Gathers the block's candidates for which @p pass(i) holds, in block
/// order, into scratch.passing and scratch.queries.
template <typename Pass>
void gather(std::span<const std::vector<double>> unit_xs,
            AcquisitionScratch& scratch, Pass pass) {
  scratch.passing.clear();
  scratch.queries.clear();
  for (std::size_t i = 0; i < unit_xs.size(); ++i) {
    if (!pass(i)) continue;
    scratch.passing.push_back(i);
    scratch.queries.emplace_back(unit_xs[i]);
  }
}

/// One predict_block() of @p model over every gathered query.
void predict_gathered(const gp::GaussianProcess& model,
                      gp::PredictionCache& cache, AcquisitionScratch& scratch) {
  scratch.predictions.resize(scratch.queries.size());
  model.predict_block(scratch.queries, cache, scratch.predictions);
}

/// Multiplies into scratch.prob[j] the probability that the
/// measured-constraint GP predicts the metric within budget at gathered
/// query j (the whole block is gathered, so j is the block index); no
/// factor, i.e. 1.0, when the GP or the budget is absent.
void multiply_constraint_probability(const gp::GaussianProcess* model,
                                     std::optional<double> budget,
                                     AcquisitionScratch& scratch) {
  if (!usable(model) || !budget) return;
  predict_gathered(*model, scratch.constraint_gp, scratch);
  for (std::size_t j = 0; j < scratch.queries.size(); ++j) {
    const gp::Prediction& p = scratch.predictions[j];
    scratch.prob[j] *= stats::probability_below(p.mean, p.stddev(), *budget);
  }
}

/// gain(p) at every gathered query's objective-GP prediction p into
/// scratch.gain; zero without a model (callers use a separate initial
/// design, so this is defensive).
template <typename Gain>
void gathered_gain(const AcquisitionContext& ctx, AcquisitionScratch& scratch,
                   Gain gain) {
  scratch.gain.assign(scratch.queries.size(), 0.0);
  if (!usable(ctx.objective_gp)) return;
  predict_gathered(*ctx.objective_gp, scratch.objective_gp, scratch);
  for (std::size_t j = 0; j < scratch.queries.size(); ++j) {
    scratch.gain[j] = gain(scratch.predictions[j]);
  }
}

/// The closed-form EI gain of HW-IECI and HW-CWEI.
auto ei_gain(const AcquisitionContext& ctx) {
  return [&ctx](const gp::Prediction& p) {
    return stats::expected_improvement(p.mean, p.stddev(), ctx.best_observed);
  };
}

/// Default (unknown constraints) mode: every candidate is gathered and
/// scratch.prob[i] = Pr(power within budget) * Pr(memory within budget)
/// under the measured-metric GPs.
void measured_constraint_probabilities(
    std::span<const std::vector<double>> unit_xs,
    const AcquisitionContext& ctx, AcquisitionScratch& scratch) {
  gather(unit_xs, scratch, [](std::size_t) { return true; });
  scratch.prob.assign(unit_xs.size(), 1.0);
  multiply_constraint_probability(ctx.measured_power_gp, ctx.budgets.power_w,
                                  scratch);
  multiply_constraint_probability(ctx.measured_memory_gp,
                                  ctx.budgets.memory_mb, scratch);
}

/// Contract shared by every score_block implementation.
void check_block_shapes(std::span<const std::vector<double>> unit_xs,
                        std::span<const Configuration> configs,
                        std::span<double> out) {
  HP_REQUIRE(unit_xs.size() == configs.size() && unit_xs.size() == out.size(),
             "score_block: unit_xs/configs/out sizes must match");
}

/// HW-IECI's constraint gate around @p gain, shared by HW-IECI, HW-PI and
/// HW-LCB: out[i] = gate(candidate i) * gain(objective prediction i).
template <typename Gain>
void indicator_gated(std::span<const std::vector<double>> unit_xs,
                     std::span<const Configuration> configs,
                     const AcquisitionContext& ctx, AcquisitionScratch& scratch,
                     std::span<double> out, Gain gain) {
  check_block_shapes(unit_xs, configs, out);
  if (ctx.constraints != nullptr) {
    // A-priori models: hard indicator, zero acquisition in violating
    // regions (Eq. 3) — evaluated first, so only the candidates that pass
    // reach the (costlier) objective GP.
    gather(unit_xs, scratch, [&](std::size_t i) {
      ctx.space.structural_into(configs[i], scratch.z);
      return ctx.constraints->predicted_feasible(scratch.z);
    });
    gathered_gain(ctx, scratch, gain);
    std::fill(out.begin(), out.end(), 0.0);
    for (std::size_t j = 0; j < scratch.passing.size(); ++j) {
      out[scratch.passing[j]] = scratch.gain[j];
    }
    return;
  }
  // Default (unknown constraints) mode: a hard indicator over the
  // measured-metric GPs strands the search whenever every early sample
  // violates (the GP mean is then above budget everywhere and nothing
  // scores). Following the probabilistic replacement of the indicator
  // the paper points to (Gramacy & Lee [17], supported by Spearmint),
  // we gate the gain by the *squared* satisfaction probability — sharper
  // than HW-CWEI's linear weighting, approaching the indicator as the GPs
  // become confident, while still providing a search gradient.
  measured_constraint_probabilities(unit_xs, ctx, scratch);
  gathered_gain(ctx, scratch, gain);
  for (std::size_t i = 0; i < unit_xs.size(); ++i) {
    const double prob = scratch.prob[i];
    out[i] = prob * prob * scratch.gain[i];
  }
}

/// @p value when it is finite and >= 0; throws std::invalid_argument with
/// @p message otherwise.
double finite_non_negative(double value, const char* message) {
  if (!std::isfinite(value) || value < 0.0) {
    throw std::invalid_argument(message);
  }
  return value;
}

}  // namespace

void HwIeciAcquisition::score_block(
    std::span<const std::vector<double>> unit_xs,
    std::span<const Configuration> configs, const AcquisitionContext& ctx,
    AcquisitionScratch& scratch, std::span<double> out) const {
  indicator_gated(unit_xs, configs, ctx, scratch, out, ei_gain(ctx));
}

void HwCweiAcquisition::score_block(
    std::span<const std::vector<double>> unit_xs,
    std::span<const Configuration> configs, const AcquisitionContext& ctx,
    AcquisitionScratch& scratch, std::span<double> out) const {
  check_block_shapes(unit_xs, configs, out);
  if (ctx.constraints != nullptr) {
    scratch.prob.resize(unit_xs.size());
    for (std::size_t i = 0; i < unit_xs.size(); ++i) {
      ctx.space.structural_into(configs[i], scratch.z);
      scratch.prob[i] = ctx.constraints->feasibility_probability(scratch.z);
    }
  } else {
    measured_constraint_probabilities(unit_xs, ctx, scratch);
  }
  // Zero where the constraints cannot be met; only the rest reach the
  // objective GP.
  gather(unit_xs, scratch,
         [&](std::size_t i) { return !(scratch.prob[i] <= 0.0); });
  gathered_gain(ctx, scratch, ei_gain(ctx));
  std::fill(out.begin(), out.end(), 0.0);
  for (std::size_t j = 0; j < scratch.passing.size(); ++j) {
    const std::size_t i = scratch.passing[j];
    out[i] = scratch.prob[i] * scratch.gain[j];
  }
}

HwPiAcquisition::HwPiAcquisition(double xi)
    : xi_(finite_non_negative(xi,
                              "HwPiAcquisition: xi must be finite and >= 0")) {
}

void HwPiAcquisition::score_block(
    std::span<const std::vector<double>> unit_xs,
    std::span<const Configuration> configs, const AcquisitionContext& ctx,
    AcquisitionScratch& scratch, std::span<double> out) const {
  const double target = ctx.best_observed - xi_;
  indicator_gated(unit_xs, configs, ctx, scratch, out,
                  [target](const gp::Prediction& p) {
                    return stats::probability_below(p.mean, p.stddev(),
                                                    target);
                  });
}

HwLcbAcquisition::HwLcbAcquisition(double kappa)
    : kappa_(finite_non_negative(
          kappa, "HwLcbAcquisition: kappa must be finite and >= 0")) {}

void HwLcbAcquisition::score_block(
    std::span<const std::vector<double>> unit_xs,
    std::span<const Configuration> configs, const AcquisitionContext& ctx,
    AcquisitionScratch& scratch, std::span<double> out) const {
  indicator_gated(unit_xs, configs, ctx, scratch, out,
                  [this, &ctx](const gp::Prediction& p) {
                    const double bound = p.mean - kappa_ * p.stddev();
                    return std::max(0.0, ctx.best_observed - bound);
                  });
}

}  // namespace hp::core
