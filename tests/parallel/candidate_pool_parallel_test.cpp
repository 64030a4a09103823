// CandidatePool::maximize fans its candidate blocks out over a borrowed
// thread pool. The maximizer must not depend on whether a pool scores the
// blocks, or on how many workers it has: the BO trace contract (a pure
// function of seed and batch size) rests on it. Built into test_parallel so
// the ThreadSanitizer phase checks the fan-out for races as well.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/acquisition.hpp"
#include "core/candidate_pool.hpp"
#include "parallel/thread_pool.hpp"
#include "stats/rng.hpp"

namespace hp::core {
namespace {

HyperParameterSpace make_space() {
  return HyperParameterSpace({
      {"features", ParameterKind::Integer, 20, 80, true},
      {"units", ParameterKind::Integer, 100, 500, true},
      {"lr", ParameterKind::LogContinuous, 0.001, 0.1, false},
  });
}

/// A GP over @p n random unit points of the space, with targets
/// offset + scale * (a smooth function of the point).
gp::GaussianProcess fitted_gp(std::size_t n, double offset, double scale,
                              std::uint64_t seed) {
  stats::Rng rng(seed);
  linalg::Matrix x(n, 3);
  linalg::Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < 3; ++d) x(i, d) = rng.uniform();
    y[i] = offset + scale * (x(i, 0) + 0.5 * x(i, 1) * x(i, 1) - 0.3 * x(i, 2));
  }
  gp::KernelParams params;
  params.signal_variance = scale * scale;
  params.length_scales = {0.4, 0.5, 0.6};
  gp::GaussianProcess model(gp::Matern52Kernel(params), 1e-4 * scale * scale);
  model.fit(std::move(x), std::move(y));
  return model;
}

/// Power 0.5 * features + 0.1 * units (20..90 W) and memory 2 * units
/// (200..1000 MB): some candidates fit a 60 W / 800 MB budget, some do not.
HardwareConstraints apriori_constraints(ConstraintBudgets budgets) {
  return HardwareConstraints(
      budgets,
      HardwareModel(ModelForm::Linear, linalg::Vector{0.5, 0.1}, 0.0, 4.0),
      HardwareModel(ModelForm::Linear, linalg::Vector{0.0, 2.0}, 0.0, 30.0));
}

struct Maximum {
  std::vector<double> unit;
  Configuration config;
  double score = 0.0;
  std::size_t evaluated = 0;
  /// The RNG's next uniform() after maximize(): the draw task and the
  /// zero-score fallback must consume the stream identically at any worker
  /// count.
  double next_uniform = 0.0;
};

/// Maximizes with a fresh, identically seeded RNG, twice on one pool object
/// (the second call reuses its buffers), and returns the second result
/// after checking it equals the first.
Maximum maximize(const AcquisitionFunction& acquisition,
                 const AcquisitionContext& ctx,
                 parallel::ThreadPool* workers) {
  CandidatePoolOptions options;
  options.lattice_points = 200;
  options.random_points = 150;
  options.score_block_size = 16;  // many blocks, so workers interleave
  CandidatePool pool(ctx.space, options);
  Maximum result;
  for (int call = 0; call < 2; ++call) {
    stats::Rng rng(77);
    const CandidatePool::Maximizer best =
        pool.maximize(acquisition, ctx, rng, workers);
    const double next_uniform = rng.uniform();
    if (call == 1) {
      EXPECT_EQ(best.unit, result.unit);
      EXPECT_EQ(best.score, result.score);
      EXPECT_EQ(next_uniform, result.next_uniform);
    }
    result = {best.unit, best.config, best.score, best.evaluated,
              next_uniform};
  }
  return result;
}

class CandidatePoolWorkersTest : public ::testing::Test {
 protected:
  CandidatePoolWorkersTest()
      : space_(make_space()),
        objective_gp_(fitted_gp(14, 0.2, 0.3, 1)),
        power_gp_(fitted_gp(14, 40.0, 30.0, 2)),
        memory_gp_(fitted_gp(14, 500.0, 300.0, 3)) {
    budgets_.power_w = 60.0;
    budgets_.memory_mb = 800.0;
  }

  /// Every acquisition in @p ctx: no pool, then 1 and 3 workers, all
  /// bitwise equal. @p evaluated is 350 candidates, plus one when the
  /// maximizer has to draw a fresh point.
  void expect_worker_count_invariant(const AcquisitionContext& ctx,
                                     const std::string& label,
                                     std::size_t evaluated = 350) {
    const ExpectedImprovementAcquisition ei;
    const HwIeciAcquisition ieci;
    const HwCweiAcquisition cwei;
    for (const AcquisitionFunction* acquisition :
         {static_cast<const AcquisitionFunction*>(&ieci),
          static_cast<const AcquisitionFunction*>(&cwei),
          static_cast<const AcquisitionFunction*>(&ei)}) {
      SCOPED_TRACE(label + " " + acquisition->name());
      const Maximum want = maximize(*acquisition, ctx, nullptr);
      EXPECT_EQ(want.evaluated, evaluated);
      for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
        SCOPED_TRACE("workers " + std::to_string(workers));
        parallel::ThreadPool pool(workers);
        const Maximum got = maximize(*acquisition, ctx, &pool);
        EXPECT_EQ(got.unit, want.unit);
        EXPECT_EQ(got.config, want.config);
        EXPECT_EQ(got.score, want.score);
        EXPECT_EQ(got.evaluated, want.evaluated);
        EXPECT_EQ(got.next_uniform, want.next_uniform);
      }
    }
  }

  HyperParameterSpace space_;
  gp::GaussianProcess objective_gp_;
  gp::GaussianProcess power_gp_;
  gp::GaussianProcess memory_gp_;
  ConstraintBudgets budgets_;
};

TEST_F(CandidatePoolWorkersTest, AprioriConstraintContext) {
  const HardwareConstraints constraints = apriori_constraints(budgets_);
  AcquisitionContext ctx{space_};
  ctx.objective_gp = &objective_gp_;
  ctx.best_observed = 0.35;
  ctx.budgets = budgets_;
  ctx.constraints = &constraints;
  expect_worker_count_invariant(ctx, "a-priori");
}

TEST_F(CandidatePoolWorkersTest, DefaultModeMeasuredGpContext) {
  AcquisitionContext ctx{space_};
  ctx.objective_gp = &objective_gp_;
  ctx.best_observed = 0.35;
  ctx.budgets = budgets_;
  ctx.measured_power_gp = &power_gp_;
  ctx.measured_memory_gp = &memory_gp_;
  expect_worker_count_invariant(ctx, "default mode");
}

TEST_F(CandidatePoolWorkersTest, AllInfeasibleFallbackContext) {
  // A 5 W budget no candidate meets: HW-IECI scores zero everywhere and the
  // maximizer falls back to the most-probably-feasible candidate.
  ConstraintBudgets tight = budgets_;
  tight.power_w = 5.0;
  const HardwareConstraints constraints = apriori_constraints(tight);
  AcquisitionContext ctx{space_};
  ctx.objective_gp = &objective_gp_;
  ctx.best_observed = 0.35;
  ctx.budgets = tight;
  ctx.constraints = &constraints;
  const HwIeciAcquisition ieci;
  const Maximum fallback = maximize(ieci, ctx, nullptr);
  EXPECT_EQ(fallback.score, 0.0);
  expect_worker_count_invariant(ctx, "all infeasible");
}

TEST_F(CandidatePoolWorkersTest, ZeroScoresDrawAfterScoringContext) {
  // An incumbent no candidate can improve on and no a-priori models: every
  // acquisition scores zero, and maximize() draws a fresh random point
  // from the RNG after scoring.
  AcquisitionContext ctx{space_};
  ctx.objective_gp = &objective_gp_;
  ctx.best_observed = -1000.0;
  ctx.budgets = budgets_;
  ctx.measured_power_gp = &power_gp_;
  ctx.measured_memory_gp = &memory_gp_;
  const HwCweiAcquisition cwei;
  const Maximum drawn = maximize(cwei, ctx, nullptr);
  EXPECT_EQ(drawn.score, 0.0);
  EXPECT_EQ(drawn.evaluated, 351u);  // 350 candidates + the fresh draw
  expect_worker_count_invariant(ctx, "zero scores", 351);
}

}  // namespace
}  // namespace hp::core
