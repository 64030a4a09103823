#include "core/acquisition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <limits>
#include <span>
#include <tuple>
#include <vector>

#include "core/spaces.hpp"
#include "score_one.hpp"
#include "stats/distributions.hpp"
#include "stats/halton.hpp"

namespace hp::core {
namespace {

using testing::score_one;

HyperParameterSpace make_space() {
  return HyperParameterSpace({
      {"features", ParameterKind::Integer, 20, 80, true},
      {"lr", ParameterKind::LogContinuous, 0.001, 0.1, false},
  });
}

gp::GaussianProcess fitted_gp() {
  gp::KernelParams p;
  p.length_scales = {0.3, 0.3};
  gp::GaussianProcess gp(gp::Matern52Kernel(p), 1e-6);
  linalg::Matrix x{{0.2, 0.2}, {0.8, 0.8}, {0.5, 0.5}};
  linalg::Vector y{0.3, 0.6, 0.2};
  gp.fit(x, y);
  return gp;
}

HardwareConstraints tight_constraints(double budget) {
  ConstraintBudgets budgets;
  budgets.power_w = budget;
  return HardwareConstraints(
      budgets, HardwareModel(ModelForm::Linear, linalg::Vector{1.0}, 0.0, 2.0),
      std::nullopt);
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(HwPi, ValidatesXi) {
  EXPECT_THROW(HwPiAcquisition(-0.1), std::invalid_argument);
  // A NaN xi would score every gated-in candidate NaN, which the pool's
  // strict > never selects.
  EXPECT_THROW(HwPiAcquisition{kNaN}, std::invalid_argument);
  EXPECT_THROW(HwPiAcquisition{kInf}, std::invalid_argument);
  EXPECT_NO_THROW(HwPiAcquisition(0.0));
}

TEST(HwPi, MatchesClosedFormProbability) {
  const auto space = make_space();
  auto gp = fitted_gp();
  AcquisitionContext ctx{space};
  ctx.objective_gp = &gp;
  ctx.best_observed = 0.35;
  HwPiAcquisition pi(0.01);
  const std::vector<double> unit{0.4, 0.4};
  const auto pred = gp.predict(linalg::Vector(unit));
  const double expected =
      stats::probability_below(pred.mean, pred.stddev(), 0.35 - 0.01);
  EXPECT_DOUBLE_EQ(score_one(pi, unit, space.decode(unit), ctx), expected);
}

TEST(HwPi, ZeroWithoutGp) {
  const auto space = make_space();
  AcquisitionContext ctx{space};
  HwPiAcquisition pi;
  EXPECT_EQ(score_one(pi, {0.5, 0.5}, space.decode({0.5, 0.5}), ctx), 0.0);
}

TEST(HwPi, GatedByAPrioriConstraints) {
  const auto space = make_space();
  auto gp = fitted_gp();
  const auto constraints = tight_constraints(50.0);
  AcquisitionContext ctx{space};
  ctx.objective_gp = &gp;
  ctx.best_observed = 0.5;
  ctx.constraints = &constraints;
  HwPiAcquisition pi;
  EXPECT_EQ(score_one(pi, {0.99, 0.5}, space.decode({0.99, 0.5}), ctx), 0.0);
  EXPECT_GT(score_one(pi, {0.05, 0.5}, space.decode({0.05, 0.5}), ctx), 0.0);
}

TEST(HwLcb, ValidatesKappa) {
  EXPECT_THROW(HwLcbAcquisition(-1.0), std::invalid_argument);
  EXPECT_THROW(HwLcbAcquisition{kNaN}, std::invalid_argument);
  EXPECT_THROW(HwLcbAcquisition{kInf}, std::invalid_argument);
  EXPECT_NO_THROW(HwLcbAcquisition(0.0));
}

TEST(HwLcb, PrefersUncertainOverKnownBad) {
  const auto space = make_space();
  auto gp = fitted_gp();
  AcquisitionContext ctx{space};
  ctx.objective_gp = &gp;
  ctx.best_observed = 0.25;
  HwLcbAcquisition lcb(2.0);
  // Near the known 0.6 observation: bound is poor. Far from data:
  // uncertainty makes the optimistic bound attractive.
  const double near_bad =
      score_one(lcb, {0.8, 0.8}, space.decode({0.8, 0.8}), ctx);
  const double far =
      score_one(lcb, {0.05, 0.95}, space.decode({0.05, 0.95}), ctx);
  EXPECT_GT(far, near_bad);
}

TEST(HwLcb, KappaZeroIsPureExploitation) {
  const auto space = make_space();
  auto gp = fitted_gp();
  AcquisitionContext ctx{space};
  ctx.objective_gp = &gp;
  ctx.best_observed = 0.25;
  HwLcbAcquisition greedy(0.0);
  // At the best observed point (mean 0.2 < 0.25) score is positive.
  EXPECT_GT(score_one(greedy, {0.5, 0.5}, space.decode({0.5, 0.5}), ctx), 0.0);
  // At the worst observed point (mean 0.6) the bound loses to 0.25 -> 0.
  EXPECT_EQ(score_one(greedy, {0.8, 0.8}, space.decode({0.8, 0.8}), ctx), 0.0);
}

TEST(HwLcb, GatedByAPrioriConstraints) {
  const auto space = make_space();
  auto gp = fitted_gp();
  const auto constraints = tight_constraints(50.0);
  AcquisitionContext ctx{space};
  ctx.objective_gp = &gp;
  ctx.best_observed = 0.9;
  ctx.constraints = &constraints;
  HwLcbAcquisition lcb;
  EXPECT_EQ(score_one(lcb, {0.99, 0.2}, space.decode({0.99, 0.2}), ctx), 0.0);
  EXPECT_GT(score_one(lcb, {0.05, 0.2}, space.decode({0.05, 0.2}), ctx), 0.0);
}

TEST(ExtraAcquisitions, NamesDistinct) {
  EXPECT_EQ(HwPiAcquisition().name(), "HW-PI");
  EXPECT_EQ(HwLcbAcquisition().name(), "HW-LCB");
}

// ---------------------------------------------------------------------------
// HW-PI and HW-LCB score blocks through HW-IECI's gate. The reference below
// is the per-candidate scoring they had before: the gate from
// structural_vector() + predicted_feasible() (a-priori) or the squared
// satisfaction probability from the measured GPs' predict() (default
// mode), then the gain from the objective GP's predict(). Every score must
// match it bit for bit.
// ---------------------------------------------------------------------------

enum class Gain { kPi, kLcb };

double reference_gate(const std::vector<double>& unit_x,
                      const Configuration& config,
                      const AcquisitionContext& ctx) {
  if (ctx.constraints != nullptr) {
    const std::vector<double> z = ctx.space.structural_vector(config);
    return ctx.constraints->predicted_feasible(z) ? 1.0 : 0.0;
  }
  double prob = 1.0;
  if (ctx.measured_power_gp != nullptr && ctx.measured_power_gp->fitted() &&
      ctx.budgets.power_w) {
    const gp::Prediction p =
        ctx.measured_power_gp->predict(linalg::Vector(unit_x));
    prob *= stats::probability_below(p.mean, p.stddev(), *ctx.budgets.power_w);
  }
  if (ctx.measured_memory_gp != nullptr && ctx.measured_memory_gp->fitted() &&
      ctx.budgets.memory_mb) {
    const gp::Prediction p =
        ctx.measured_memory_gp->predict(linalg::Vector(unit_x));
    prob *=
        stats::probability_below(p.mean, p.stddev(), *ctx.budgets.memory_mb);
  }
  return prob * prob;
}

double reference_score(Gain kind, double param,
                       const std::vector<double>& unit_x,
                       const Configuration& config,
                       const AcquisitionContext& ctx) {
  const double gate = reference_gate(unit_x, config, ctx);
  if (gate <= 0.0) return 0.0;
  if (ctx.objective_gp == nullptr || !ctx.objective_gp->fitted()) return 0.0;
  const gp::Prediction p = ctx.objective_gp->predict(linalg::Vector(unit_x));
  if (kind == Gain::kPi) {
    return gate * stats::probability_below(p.mean, p.stddev(),
                                           ctx.best_observed - param);
  }
  const double bound = p.mean - param * p.stddev();
  return gate * std::max(0.0, ctx.best_observed - bound);
}

/// Scores 57 space-filling candidates with HW-PI(0.01) and HW-LCB(2.0) in
/// blocks of 1, 8 and 57, one scratch reused throughout, and compares each
/// score with the reference. Returns how many reference scores were > 0.
std::size_t expect_matches_reference(const AcquisitionContext& ctx) {
  stats::HaltonSequence halton(ctx.space.dimension(), 7);
  const std::vector<std::vector<double>> units = halton.take(57);
  std::vector<Configuration> configs;
  for (const auto& unit : units) configs.push_back(ctx.space.decode(unit));
  const HwPiAcquisition pi(0.01);
  const HwLcbAcquisition lcb(2.0);
  std::size_t positive = 0;
  for (const auto& [acquisition, kind, param] :
       {std::tuple<const AcquisitionFunction*, Gain, double>{&pi, Gain::kPi,
                                                             0.01},
        std::tuple<const AcquisitionFunction*, Gain, double>{&lcb, Gain::kLcb,
                                                             2.0}}) {
    std::vector<double> want(units.size());
    for (std::size_t i = 0; i < units.size(); ++i) {
      want[i] = reference_score(kind, param, units[i], configs[i], ctx);
      if (want[i] > 0.0) ++positive;
    }
    AcquisitionScratch scratch;
    for (const std::size_t block : {std::size_t{1}, std::size_t{8},
                                    std::size_t{57}}) {
      std::vector<double> got(units.size(), -1.0);
      for (std::size_t begin = 0; begin < units.size(); begin += block) {
        const std::size_t count = std::min(block, units.size() - begin);
        acquisition->score_block(
            std::span<const std::vector<double>>(units).subspan(begin, count),
            std::span<const Configuration>(configs).subspan(begin, count), ctx,
            scratch, std::span<double>(got).subspan(begin, count));
      }
      for (std::size_t i = 0; i < units.size(); ++i) {
        EXPECT_EQ(got[i], want[i]) << acquisition->name() << " candidate "
                                   << i << " block " << block;
      }
    }
  }
  return positive;
}

/// Power and memory GPs fit on measured metrics over the unit square.
gp::GaussianProcess measured_gp(double low, double high) {
  gp::KernelParams p;
  p.length_scales = {0.3, 0.3};
  p.signal_variance = high * high;
  gp::GaussianProcess gp(gp::Matern52Kernel(p), 1e-4);
  linalg::Matrix x{{0.1, 0.5}, {0.9, 0.5}, {0.5, 0.1}};
  linalg::Vector y{low, high, 0.5 * (low + high)};
  gp.fit(x, y);
  return gp;
}

TEST(ScoreBlockReference, HwPiHwLcbMatchScalarAprioriMode) {
  const auto space = make_space();
  auto gp = fitted_gp();
  ConstraintBudgets budgets;
  budgets.power_w = 50.0;
  budgets.memory_mb = 600.0;
  const HardwareConstraints constraints(
      budgets, HardwareModel(ModelForm::Linear, linalg::Vector{1.0}, 0.0, 2.0),
      HardwareModel(ModelForm::Linear, linalg::Vector{10.0}, 0.0, 20.0));
  AcquisitionContext ctx{space};
  ctx.objective_gp = &gp;
  ctx.best_observed = 0.4;
  ctx.constraints = &constraints;
  EXPECT_GT(expect_matches_reference(ctx), 0u);
}

TEST(ScoreBlockReference, HwPiHwLcbMatchScalarDefaultMode) {
  const auto space = make_space();
  auto gp = fitted_gp();
  const gp::GaussianProcess power = measured_gp(30.0, 90.0);
  const gp::GaussianProcess memory = measured_gp(200.0, 900.0);
  AcquisitionContext ctx{space};
  ctx.objective_gp = &gp;
  ctx.best_observed = 0.4;
  ctx.budgets.power_w = 60.0;
  ctx.budgets.memory_mb = 700.0;
  ctx.measured_power_gp = &power;
  ctx.measured_memory_gp = &memory;
  EXPECT_GT(expect_matches_reference(ctx), 0u);
}

TEST(ScoreBlockReference, HwPiHwLcbMatchScalarAllInfeasible) {
  const auto space = make_space();
  auto gp = fitted_gp();
  const auto constraints = tight_constraints(5.0);
  AcquisitionContext ctx{space};
  ctx.objective_gp = &gp;
  ctx.best_observed = 0.4;
  ctx.constraints = &constraints;
  EXPECT_EQ(expect_matches_reference(ctx), 0u);
}

TEST(ScoreBlockReference, HwPiHwLcbMatchScalarWithoutObjectiveGp) {
  const auto space = make_space();
  const gp::GaussianProcess power = measured_gp(30.0, 90.0);
  const gp::GaussianProcess unfitted(
      gp::Matern52Kernel(gp::KernelParams{}), 1e-6);
  const auto constraints = tight_constraints(50.0);
  AcquisitionContext ctx{space};
  ctx.best_observed = 0.4;
  ctx.budgets.power_w = 60.0;
  ctx.measured_power_gp = &power;
  EXPECT_EQ(expect_matches_reference(ctx), 0u);
  ctx.objective_gp = &unfitted;
  ctx.constraints = &constraints;
  EXPECT_EQ(expect_matches_reference(ctx), 0u);
}

}  // namespace
}  // namespace hp::core
