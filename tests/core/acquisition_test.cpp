#include "core/acquisition.hpp"

#include <gtest/gtest.h>

#include "core/candidate_pool.hpp"
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

/// Power model P(z) = z0 (so budget 50 means features <= 50 feasible).
HardwareModel identity_power_model(double residual_sd = 0.0) {
  return HardwareModel(ModelForm::Linear, linalg::Vector{1.0}, 0.0,
                       residual_sd);
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

/// @p ctx without constraints: no a-priori models and no measured GPs, so
/// HW-IECI's gate passes every candidate and it scores plain EI.
AcquisitionContext plain_ei(const AcquisitionContext& ctx) {
  AcquisitionContext plain = ctx;
  plain.constraints = nullptr;
  plain.measured_power_gp = nullptr;
  plain.measured_memory_gp = nullptr;
  return plain;
}

TEST(HardwareConstraints, IndicatorRespectsBudgets) {
  ConstraintBudgets budgets;
  budgets.power_w = 50.0;
  HardwareConstraints hc(budgets, identity_power_model(), std::nullopt);
  EXPECT_TRUE(hc.predicted_feasible(std::vector<double>{40.0}));
  EXPECT_FALSE(hc.predicted_feasible(std::vector<double>{60.0}));
}

TEST(HardwareConstraints, MissingModelImposesNoConstraint) {
  ConstraintBudgets budgets;
  budgets.power_w = 50.0;
  budgets.memory_mb = 100.0;
  HardwareConstraints hc(budgets, std::nullopt, std::nullopt);
  EXPECT_TRUE(hc.predicted_feasible(std::vector<double>{1000.0}));
  EXPECT_EQ(hc.feasibility_probability(std::vector<double>{1000.0}), 1.0);
}

TEST(HardwareConstraints, ProbabilityReflectsResidualUncertainty) {
  ConstraintBudgets budgets;
  budgets.power_w = 50.0;
  HardwareConstraints hc(budgets, identity_power_model(5.0), std::nullopt);
  // Right at the budget: 50% chance.
  EXPECT_NEAR(hc.feasibility_probability(std::vector<double>{50.0}), 0.5,
              1e-9);
  // Far below: near certain.
  EXPECT_GT(hc.feasibility_probability(std::vector<double>{30.0}), 0.99);
  // Far above: near zero.
  EXPECT_LT(hc.feasibility_probability(std::vector<double>{70.0}), 0.01);
}

TEST(HardwareConstraints, MeasuredFeasibleChecksBothMetrics) {
  ConstraintBudgets budgets;
  budgets.power_w = 50.0;
  budgets.memory_mb = 100.0;
  HardwareConstraints hc(budgets, std::nullopt, std::nullopt);
  EXPECT_TRUE(hc.measured_feasible(45.0, 90.0));
  EXPECT_FALSE(hc.measured_feasible(55.0, 90.0));
  EXPECT_FALSE(hc.measured_feasible(45.0, 110.0));
  // Missing measurements cannot violate (Tegra memory).
  EXPECT_TRUE(hc.measured_feasible(45.0, std::nullopt));
  EXPECT_TRUE(hc.measured_feasible(std::nullopt, std::nullopt));
}

TEST(ExpectedImprovementAcq, MatchesClosedForm) {
  const auto space = make_space();
  auto gp = fitted_gp();
  AcquisitionContext ctx{space};
  ctx.objective_gp = &gp;
  ctx.best_observed = 0.25;
  HwIeciAcquisition ei;  // no constraints: plain EI
  const std::vector<double> unit{0.3, 0.3};
  const auto pred = gp.predict(linalg::Vector(unit));
  const double expected =
      stats::expected_improvement(pred.mean, pred.stddev(), 0.25);
  EXPECT_DOUBLE_EQ(score_one(ei, unit, space.decode(unit), ctx), expected);
}

TEST(ExpectedImprovementAcq, ZeroWithoutModel) {
  const auto space = make_space();
  AcquisitionContext ctx{space};
  HwIeciAcquisition ei;  // no constraints: plain EI
  EXPECT_EQ(score_one(ei, {0.5, 0.5}, space.decode({0.5, 0.5}), ctx), 0.0);
}

TEST(HwIeci, ZeroInPredictedViolationRegion) {
  const auto space = make_space();
  auto gp = fitted_gp();
  ConstraintBudgets budgets;
  budgets.power_w = 50.0;
  HardwareConstraints hc(budgets, identity_power_model(), std::nullopt);
  AcquisitionContext ctx{space};
  ctx.objective_gp = &gp;
  ctx.best_observed = 0.5;
  ctx.constraints = &hc;
  HwIeciAcquisition ieci;
  // features=80 -> predicted power 80 > 50: hard zero.
  const Configuration violating = space.decode({0.99, 0.5});
  EXPECT_EQ(score_one(ieci, {0.99, 0.5}, violating, ctx), 0.0);
  // features=25 -> feasible: positive EI.
  const Configuration feasible = space.decode({0.05, 0.5});
  EXPECT_GT(score_one(ieci, {0.05, 0.5}, feasible, ctx), 0.0);
}

TEST(HwIeci, EqualsEiInFeasibleRegion) {
  const auto space = make_space();
  auto gp = fitted_gp();
  ConstraintBudgets budgets;
  budgets.power_w = 100.0;  // everything feasible
  HardwareConstraints hc(budgets, identity_power_model(), std::nullopt);
  AcquisitionContext ctx{space};
  ctx.objective_gp = &gp;
  ctx.best_observed = 0.4;
  ctx.constraints = &hc;
  HwIeciAcquisition ieci;
  const std::vector<double> unit{0.4, 0.6};
  const Configuration config = space.decode(unit);
  EXPECT_DOUBLE_EQ(score_one(ieci, unit, config, ctx),
                   score_one(ieci, unit, config, plain_ei(ctx)));
}

TEST(HwCwei, WeightsEiByFeasibilityProbability) {
  const auto space = make_space();
  auto gp = fitted_gp();
  ConstraintBudgets budgets;
  budgets.power_w = 50.0;
  HardwareConstraints hc(budgets, identity_power_model(10.0), std::nullopt);
  AcquisitionContext ctx{space};
  ctx.objective_gp = &gp;
  ctx.best_observed = 0.4;
  ctx.constraints = &hc;
  HwCweiAcquisition cwei;
  const std::vector<double> unit{0.5, 0.5};  // features = 50: P(feasible) ~ 0.5
  const Configuration config = space.decode(unit);
  const double ei_score =
      score_one(HwIeciAcquisition{}, unit, config, plain_ei(ctx));
  const double cwei_score = score_one(cwei, unit, config, ctx);
  EXPECT_GT(cwei_score, 0.0);
  EXPECT_LT(cwei_score, ei_score);
  const std::vector<double> z = space.structural_vector(config);
  EXPECT_NEAR(cwei_score, ei_score * hc.feasibility_probability(z), 1e-12);
}

TEST(HwCwei, CertainFeasibilityRecoversEi) {
  const auto space = make_space();
  auto gp = fitted_gp();
  ConstraintBudgets budgets;
  budgets.power_w = 1000.0;
  HardwareConstraints hc(budgets, identity_power_model(1.0), std::nullopt);
  AcquisitionContext ctx{space};
  ctx.objective_gp = &gp;
  ctx.best_observed = 0.4;
  ctx.constraints = &hc;
  HwCweiAcquisition cwei;
  const std::vector<double> unit{0.2, 0.8};
  const Configuration config = space.decode(unit);
  EXPECT_NEAR(score_one(cwei, unit, config, ctx),
              score_one(HwIeciAcquisition{}, unit, config, plain_ei(ctx)),
              1e-12);
}

TEST(DefaultMode, ConstraintGpsGateTheAcquisition) {
  // No a-priori models: the acquisition falls back to GPs over measured
  // power (the expensive unknown-constraints treatment).
  const auto space = make_space();
  auto objective_gp = fitted_gp();
  gp::KernelParams p;
  p.length_scales = {0.3, 0.3};
  p.signal_variance = 100.0;
  gp::GaussianProcess power_gp(gp::Matern52Kernel(p), 1e-4);
  // Measured power: low at (0.1, *), high at (0.9, *).
  linalg::Matrix x{{0.1, 0.5}, {0.9, 0.5}};
  linalg::Vector y{30.0, 90.0};
  power_gp.fit(x, y);

  AcquisitionContext ctx{space};
  ctx.objective_gp = &objective_gp;
  ctx.best_observed = 0.5;
  ctx.budgets.power_w = 50.0;
  ctx.measured_power_gp = &power_gp;

  HwIeciAcquisition ieci;
  HwCweiAcquisition cwei;
  const double ieci_low =
      score_one(ieci, {0.1, 0.5}, space.decode({0.1, 0.5}), ctx);
  const double ieci_high =
      score_one(ieci, {0.9, 0.5}, space.decode({0.9, 0.5}), ctx);
  EXPECT_GT(ieci_low, 0.0);
  // At the observed high-power point the GP is confident: the squared-
  // probability gate drives the score to (essentially) zero.
  EXPECT_LT(ieci_high, ieci_low * 1e-3);
  const double cwei_low =
      score_one(cwei, {0.1, 0.5}, space.decode({0.1, 0.5}), ctx);
  const double cwei_high =
      score_one(cwei, {0.9, 0.5}, space.decode({0.9, 0.5}), ctx);
  EXPECT_GT(cwei_low, cwei_high);
  // IECI's squared gate suppresses uncertain-feasibility regions harder
  // than CWEI's linear weighting.
  EXPECT_LE(ieci_high, cwei_high);
}

// ---------------------------------------------------------------------------
// Blocked scoring: a candidate's score must not depend on the block it is
// scored in (score_one() is score_block() on one candidate), and the argmax
// tie-break (lowest candidate index wins) is pinned across the pool's
// blocks.
// ---------------------------------------------------------------------------

/// Space-filling candidate set + decoded configs for block-vs-scalar sweeps.
struct CandidateSet {
  std::vector<std::vector<double>> units;
  std::vector<Configuration> configs;
};

CandidateSet make_candidates(const HyperParameterSpace& space, std::size_t n) {
  CandidateSet set;
  stats::HaltonSequence halton(space.dimension(), 7);
  set.units = halton.take(n);
  set.configs.reserve(n);
  for (const auto& unit : set.units) set.configs.push_back(space.decode(unit));
  return set;
}

/// Asserts score_block == per-candidate score_one() bitwise over the whole
/// set, for every block size (scratch reuse must not leak state across calls).
void expect_block_matches_scalar(const AcquisitionFunction& acq,
                                 const HyperParameterSpace& space,
                                 const AcquisitionContext& ctx) {
  const CandidateSet set = make_candidates(space, 57);
  std::vector<double> want(set.units.size());
  for (std::size_t i = 0; i < set.units.size(); ++i) {
    want[i] = score_one(acq, set.units[i], set.configs[i], ctx);
  }
  for (std::size_t block : {std::size_t{1}, std::size_t{8}, std::size_t{57}}) {
    std::vector<double> got(set.units.size(), -1.0);
    AcquisitionScratch scratch;
    for (std::size_t begin = 0; begin < set.units.size(); begin += block) {
      const std::size_t count = std::min(block, set.units.size() - begin);
      acq.score_block(
          std::span<const std::vector<double>>(set.units).subspan(begin, count),
          std::span<const Configuration>(set.configs).subspan(begin, count),
          ctx, scratch, std::span<double>(got).subspan(begin, count));
    }
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << acq.name() << " candidate " << i
                                 << " block " << block;
    }
  }
}

TEST(ScoreBlock, EiMatchesScalarBitwise) {
  const auto space = make_space();
  auto gp = fitted_gp();
  AcquisitionContext ctx{space};
  ctx.objective_gp = &gp;
  ctx.best_observed = 0.3;
  // No constraints: HW-IECI scores plain EI.
  expect_block_matches_scalar(HwIeciAcquisition{}, space, ctx);
}

TEST(ScoreBlock, HwIeciMatchesScalarBitwiseAprioriMode) {
  const auto space = make_space();
  auto gp = fitted_gp();
  ConstraintBudgets budgets;
  budgets.power_w = 50.0;
  HardwareConstraints hc(budgets, identity_power_model(), std::nullopt);
  AcquisitionContext ctx{space};
  ctx.objective_gp = &gp;
  ctx.best_observed = 0.4;
  ctx.constraints = &hc;
  expect_block_matches_scalar(HwIeciAcquisition{}, space, ctx);
  expect_block_matches_scalar(HwCweiAcquisition{}, space, ctx);
}

TEST(ScoreBlock, HwIeciMatchesScalarBitwiseDefaultMode) {
  const auto space = make_space();
  auto objective_gp = fitted_gp();
  gp::KernelParams p;
  p.length_scales = {0.3, 0.3};
  p.signal_variance = 100.0;
  gp::GaussianProcess power_gp(gp::Matern52Kernel(p), 1e-4);
  linalg::Matrix x{{0.1, 0.5}, {0.9, 0.5}};
  linalg::Vector y{30.0, 90.0};
  power_gp.fit(x, y);
  AcquisitionContext ctx{space};
  ctx.objective_gp = &objective_gp;
  ctx.best_observed = 0.5;
  ctx.budgets.power_w = 50.0;
  ctx.measured_power_gp = &power_gp;
  expect_block_matches_scalar(HwIeciAcquisition{}, space, ctx);
  expect_block_matches_scalar(HwCweiAcquisition{}, space, ctx);
}

/// Constant positive score for every candidate.
class ConstantBlockAcquisition final : public AcquisitionFunction {
 public:
  void score_block(std::span<const std::vector<double>> unit_xs,
                   std::span<const Configuration>, const AcquisitionContext&,
                   AcquisitionScratch&, std::span<double> out) const override {
    for (std::size_t i = 0; i < unit_xs.size(); ++i) out[i] = 1.0;
  }
  [[nodiscard]] std::string name() const override { return "const-block"; }
};

// The default pool's 600 lattice points span 19 scoring blocks, so the tie
// crosses block boundaries.
TEST(ArgmaxTieBreak, LowestIndexWinsBlockedPath) {
  const auto space = make_space();
  AcquisitionContext ctx{space};
  CandidatePool pool(space);
  ConstantBlockAcquisition acq;
  stats::Rng rng(9);
  const auto best = pool.maximize(acq, ctx, rng);
  EXPECT_EQ(best.unit, pool.lattice().front());
  EXPECT_EQ(best.score, 1.0);
}

}  // namespace
}  // namespace hp::core
