// CandidatePool::maximize fans its candidate blocks out over a borrowed
// thread pool. The maximizer must not depend on whether a pool scores the
// blocks, or on how many workers it has: the BO trace contract (a pure
// function of seed and batch size) rests on it. Built into test_parallel so
// the ThreadSanitizer phase checks the fan-out for races as well.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
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

/// @p n random unit points of the space, with targets
/// offset + scale * (a smooth function of the point).
void smooth_data(std::size_t n, double offset, double scale,
                 std::uint64_t seed, linalg::Matrix& x, linalg::Vector& y) {
  stats::Rng rng(seed);
  x = linalg::Matrix(n, 3);
  y = linalg::Vector(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < 3; ++d) x(i, d) = rng.uniform();
    y[i] = offset + scale * (x(i, 0) + 0.5 * x(i, 1) * x(i, 1) - 0.3 * x(i, 2));
  }
}

/// An unfitted GP with a kernel and noise scaled to targets of spread
/// @p scale.
gp::GaussianProcess scaled_gp(double scale) {
  gp::KernelParams params;
  params.signal_variance = scale * scale;
  params.length_scales = {0.4, 0.5, 0.6};
  return gp::GaussianProcess(gp::Matern52Kernel(params), 1e-4 * scale * scale);
}

/// A GP fit to smooth_data(n, offset, scale, seed).
gp::GaussianProcess fitted_gp(std::size_t n, double offset, double scale,
                              std::uint64_t seed) {
  linalg::Matrix x;
  linalg::Vector y;
  smooth_data(n, offset, scale, seed, x, y);
  gp::GaussianProcess model = scaled_gp(scale);
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

CandidatePoolOptions pool_options() {
  CandidatePoolOptions options;
  options.lattice_points = 200;
  options.random_points = 150;
  return options;
}

/// One maximize() on @p pool with an RNG seeded @p seed.
Maximum maximize_once(CandidatePool& pool,
                      const AcquisitionFunction& acquisition,
                      const AcquisitionContext& ctx,
                      parallel::ThreadPool* workers, std::uint64_t seed) {
  stats::Rng rng(seed);
  const CandidatePool::Maximizer best =
      pool.maximize(acquisition, ctx, rng, workers);
  const double next_uniform = rng.uniform();
  return {best.unit, best.config, best.score, best.evaluated, next_uniform};
}

void expect_same_maximum(const Maximum& got, const Maximum& want) {
  EXPECT_EQ(got.unit, want.unit);
  EXPECT_EQ(got.config, want.config);
  EXPECT_EQ(got.score, want.score);
  EXPECT_EQ(got.evaluated, want.evaluated);
  EXPECT_EQ(got.next_uniform, want.next_uniform);
}

/// Maximizes with a fresh, identically seeded RNG, twice on one pool object
/// (the second call reuses its buffers), and returns the second result
/// after checking it equals the first.
Maximum maximize(const AcquisitionFunction& acquisition,
                 const AcquisitionContext& ctx,
                 parallel::ThreadPool* workers) {
  CandidatePool pool(ctx.space, pool_options());
  const Maximum first = maximize_once(pool, acquisition, ctx, workers, 77);
  const Maximum second = maximize_once(pool, acquisition, ctx, workers, 77);
  expect_same_maximum(second, first);
  return second;
}

/// Two constant-liar rounds of four proposals on one pool, with the
/// objective GP refit between calls as the BO proposer refits it: after
/// each proposal but a round's last, a lie at the proposed point extends
/// the GP by one row; the round ends with a truncation to the real
/// observations, and two real observations then extend it. Every call must
/// equal a fresh pool's, RNG included, however much of its prediction
/// state the kept pool carries over. Returns the kept pool's results.
std::vector<Maximum> liar_rounds(const AcquisitionFunction& acquisition,
                                 AcquisitionContext ctx,
                                 parallel::ThreadPool* workers) {
  linalg::Matrix data_x;
  linalg::Vector data_y;
  smooth_data(18, 0.2, 0.3, 1, data_x, data_y);
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  const auto observe = [&](std::vector<double> x, double y) {
    xs.push_back(std::move(x));
    ys.push_back(y);
  };
  gp::GaussianProcess objective = scaled_gp(0.3);
  const auto refit = [&] {
    linalg::Matrix x(xs.size(), 3);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      for (std::size_t d = 0; d < 3; ++d) x(i, d) = xs[i][d];
    }
    objective.fit(std::move(x), linalg::Vector{std::vector<double>(ys)});
  };
  for (std::size_t i = 0; i < 14; ++i) observe(data_x.row(i).raw(), data_y[i]);
  refit();
  ctx.objective_gp = &objective;
  CandidatePool pool(ctx.space, pool_options());
  std::vector<Maximum> results;
  std::uint64_t seed = 500;
  for (int round = 0; round < 2; ++round) {
    const std::size_t real = ys.size();
    for (int j = 0; j < 4; ++j) {
      SCOPED_TRACE("round " + std::to_string(round) + " proposal " +
                   std::to_string(j));
      const Maximum kept =
          maximize_once(pool, acquisition, ctx, workers, seed);
      CandidatePool fresh_pool(ctx.space, pool_options());
      expect_same_maximum(
          kept, maximize_once(fresh_pool, acquisition, ctx, workers, seed));
      ++seed;
      results.push_back(kept);
      if (j < 3) {
        observe(kept.unit, ctx.best_observed);
        refit();
      }
    }
    xs.resize(real);
    ys.resize(real);
    refit();
    for (std::size_t i = real; i < real + 2; ++i) {
      observe(data_x.row(i).raw(), data_y[i]);
    }
    refit();
  }
  return results;
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
  /// bitwise equal, for one maximize() and for liar_rounds(). @p evaluated
  /// is 350 candidates, plus one when the maximizer has to draw a fresh
  /// point.
  void expect_worker_count_invariant(const AcquisitionContext& ctx,
                                     const std::string& label,
                                     std::size_t evaluated = 350) {
    const HwIeciAcquisition ieci;
    const HwCweiAcquisition cwei;
    const HwPiAcquisition pi;
    const HwLcbAcquisition lcb;
    for (const AcquisitionFunction* acquisition :
         {static_cast<const AcquisitionFunction*>(&ieci),
          static_cast<const AcquisitionFunction*>(&cwei),
          static_cast<const AcquisitionFunction*>(&pi),
          static_cast<const AcquisitionFunction*>(&lcb)}) {
      SCOPED_TRACE(label + " " + acquisition->name());
      const Maximum want = maximize(*acquisition, ctx, nullptr);
      EXPECT_EQ(want.evaluated, evaluated);
      const std::vector<Maximum> want_rounds =
          liar_rounds(*acquisition, ctx, nullptr);
      for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
        SCOPED_TRACE("workers " + std::to_string(workers));
        parallel::ThreadPool pool(workers);
        expect_same_maximum(maximize(*acquisition, ctx, &pool), want);
        const std::vector<Maximum> got_rounds =
            liar_rounds(*acquisition, ctx, &pool);
        ASSERT_EQ(got_rounds.size(), want_rounds.size());
        for (std::size_t call = 0; call < got_rounds.size(); ++call) {
          SCOPED_TRACE("liar call " + std::to_string(call));
          expect_same_maximum(got_rounds[call], want_rounds[call]);
        }
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
