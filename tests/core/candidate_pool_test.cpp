#include "core/candidate_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace hp::core {
namespace {

HyperParameterSpace make_space() {
  return HyperParameterSpace({
      {"features", ParameterKind::Integer, 20, 80, true},
      {"lr", ParameterKind::LogContinuous, 0.001, 0.1, false},
  });
}

/// Deterministic acquisition peaked at a target unit point.
class PeakAcquisition final : public AcquisitionFunction {
 public:
  explicit PeakAcquisition(std::vector<double> target)
      : target_(std::move(target)) {}
  void score_block(std::span<const std::vector<double>> unit_xs,
                   std::span<const Configuration>, const AcquisitionContext&,
                   AcquisitionScratch&, std::span<double> out) const override {
    for (std::size_t b = 0; b < unit_xs.size(); ++b) {
      double d2 = 0.0;
      for (std::size_t i = 0; i < unit_xs[b].size(); ++i) {
        const double d = unit_xs[b][i] - target_[i];
        d2 += d * d;
      }
      out[b] = 1.0 / (1e-3 + d2);
    }
  }
  [[nodiscard]] std::string name() const override { return "peak"; }

 private:
  std::vector<double> target_;
};

/// Acquisition that scores everything zero.
class ZeroAcquisition final : public AcquisitionFunction {
 public:
  void score_block(std::span<const std::vector<double>>,
                   std::span<const Configuration>, const AcquisitionContext&,
                   AcquisitionScratch&, std::span<double> out) const override {
    std::fill(out.begin(), out.end(), 0.0);
  }
  [[nodiscard]] std::string name() const override { return "zero"; }
};

TEST(CandidatePool, RejectsEmptyPool) {
  const auto space = make_space();
  CandidatePoolOptions opt;
  opt.lattice_points = 0;
  opt.random_points = 0;
  EXPECT_THROW(CandidatePool(space, opt), std::invalid_argument);
}

TEST(CandidatePool, LatticeHasRequestedSizeAndDimension) {
  const auto space = make_space();
  CandidatePoolOptions opt;
  opt.lattice_points = 64;
  CandidatePool pool(space, opt);
  ASSERT_EQ(pool.lattice().size(), 64u);
  for (const auto& p : pool.lattice()) EXPECT_EQ(p.size(), 2u);
}

TEST(CandidatePool, FindsAcquisitionPeak) {
  const auto space = make_space();
  CandidatePoolOptions opt;
  opt.lattice_points = 400;
  opt.random_points = 200;
  CandidatePool pool(space, opt);
  AcquisitionContext ctx{space};
  PeakAcquisition peak({0.7, 0.3});
  stats::Rng rng(1);
  const auto best = pool.maximize(peak, ctx, rng);
  EXPECT_NEAR(best.unit[0], 0.7, 0.1);
  EXPECT_NEAR(best.unit[1], 0.3, 0.1);
  EXPECT_GT(best.score, 0.0);
  EXPECT_EQ(best.evaluated, 600u);
}

TEST(CandidatePool, MaximizerConfigMatchesUnit) {
  const auto space = make_space();
  CandidatePool pool(space);
  AcquisitionContext ctx{space};
  PeakAcquisition peak({0.5, 0.5});
  stats::Rng rng(2);
  const auto best = pool.maximize(peak, ctx, rng);
  // Config decodes from the unit point the maximizer reports.
  EXPECT_EQ(best.config, space.decode(best.unit));
}

TEST(CandidatePool, AllZeroScoresFallsBackToFeasibleCandidate) {
  const auto space = make_space();
  ConstraintBudgets budgets;
  budgets.power_w = 50.0;
  // P(z) = features: only feature counts <= 50 are feasible.
  HardwareConstraints hc(
      budgets, HardwareModel(ModelForm::Linear, linalg::Vector{1.0}, 0.0, 3.0),
      std::nullopt);
  AcquisitionContext ctx{space};
  ctx.constraints = &hc;
  CandidatePool pool(space);
  ZeroAcquisition zero;
  stats::Rng rng(3);
  const auto best = pool.maximize(zero, ctx, rng);
  ASSERT_FALSE(best.unit.empty());
  // The fallback maximizes feasibility probability -> a low feature count.
  EXPECT_LT(best.config[0], 55.0);
}

TEST(CandidatePool, AllZeroScoresWithoutConstraintsStillReturnsAPoint) {
  const auto space = make_space();
  AcquisitionContext ctx{space};
  CandidatePool pool(space);
  ZeroAcquisition zero;
  stats::Rng rng(4);
  const auto best = pool.maximize(zero, ctx, rng);
  EXPECT_EQ(best.unit.size(), 2u);
  EXPECT_NO_THROW(space.validate(best.config));
}


TEST(CandidatePool, RepeatedMaximizeReusesBuffersIndependently) {
  // Buffer reuse across rounds must not leak state: two rounds with
  // identically seeded RNGs return identical maximizers.
  const auto space = make_space();
  PeakAcquisition peak({0.2, 0.9});
  AcquisitionContext ctx{space};
  CandidatePool pool(space);
  stats::Rng rng_a(23);
  const auto first = pool.maximize(peak, ctx, rng_a);
  stats::Rng rng_b(23);
  const auto second = pool.maximize(peak, ctx, rng_b);
  EXPECT_EQ(first.unit, second.unit);
  EXPECT_EQ(first.score, second.score);
}

TEST(CandidatePool, DeterministicLatticePerSeed) {
  const auto space = make_space();
  CandidatePool a(space);
  CandidatePool b(space);
  EXPECT_EQ(a.lattice(), b.lattice());
}

}  // namespace
}  // namespace hp::core
