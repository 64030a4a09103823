#include "core/optimizer.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/bayes_opt.hpp"
#include "core/framework.hpp"
#include "core/random_search.hpp"
#include "core/random_walk.hpp"
#include "fake_objective.hpp"

namespace hp::core {
namespace {

using testing::FakeObjective;
using testing::fake_space;

/// Power model in structural z (= unit a in [0,1], scaled by 100 in the
/// fake objective): P(z) = 100 * z.
HardwareConstraints make_constraints(double power_budget) {
  ConstraintBudgets budgets;
  budgets.power_w = power_budget;
  return HardwareConstraints(
      budgets,
      HardwareModel(ModelForm::Linear, linalg::Vector{100.0}, 0.0, 0.5),
      std::nullopt);
}

OptimizerOptions fixed_evals(std::size_t n, std::uint64_t seed = 1) {
  OptimizerOptions opt;
  opt.max_function_evaluations = n;
  opt.seed = seed;
  return opt;
}

TEST(RandomSearch, StopsAtMaxFunctionEvaluations) {
  auto space = fake_space();
  FakeObjective obj(space);
  Optimizer rand(space, obj, {}, nullptr, fixed_evals(12),
                 std::make_unique<RandomSearchProposer>(space));
  const auto result = rand.run();
  EXPECT_EQ(result.trace.function_evaluations(), 12u);
  EXPECT_EQ(obj.evaluations(), 12u);
  ASSERT_TRUE(result.best.has_value());
  EXPECT_LT(result.best->test_error, 0.5);
}

TEST(RandomSearch, StopsAtTimeBudgetAllowingLastSample) {
  auto space = fake_space();
  FakeObjective obj(space, /*cost_s=*/10.0);
  OptimizerOptions opt;
  opt.max_runtime_s = 95.0;
  opt.seed = 2;
  Optimizer rand(space, obj, {}, nullptr, opt,
                 std::make_unique<RandomSearchProposer>(space));
  const auto result = rand.run();
  // Each sample costs 10s + 0.5s proposal overhead: the run crosses 95s
  // mid-sample and finishes it (like the paper's wall-clock runs).
  EXPECT_GE(result.trace.total_time_s(), 95.0);
  EXPECT_LT(result.trace.total_time_s(), 120.0);
}

TEST(RandomSearch, ModelFilterPreventsObjectiveCalls) {
  auto space = fake_space();
  FakeObjective obj(space);
  const auto constraints = make_constraints(60.0);
  OptimizerOptions opt;
  opt.max_samples = 50;
  opt.max_function_evaluations = 1000;
  opt.seed = 3;
  Optimizer rand(space, obj, constraints.budgets(), &constraints, opt,
                 std::make_unique<RandomSearchProposer>(space));
  const auto result = rand.run();
  // About 40% of the space is predicted-infeasible: those samples never
  // reach the objective.
  EXPECT_GT(result.trace.model_filtered_count(), 5u);
  EXPECT_EQ(result.trace.function_evaluations(), obj.evaluations());
  EXPECT_EQ(result.trace.size(), 50u);
  // Every filtered record is marked violating-by-prediction.
  for (const auto& r : result.trace.records()) {
    if (r.status == EvaluationStatus::ModelFiltered) {
      EXPECT_TRUE(r.violates_constraints);
      EXPECT_GT(r.config[0], 0.55);  // the predicted-infeasible region
    }
  }
}

TEST(RandomSearch, DefaultModeIgnoresModelsButDetectsViolations) {
  auto space = fake_space();
  FakeObjective obj(space);
  const auto constraints = make_constraints(60.0);
  OptimizerOptions opt = fixed_evals(30, 4);
  opt.use_hardware_models = false;  // "default" exhaustive mode
  Optimizer rand(space, obj, constraints.budgets(), &constraints, opt,
                 std::make_unique<RandomSearchProposer>(space));
  const auto result = rand.run();
  EXPECT_EQ(result.trace.model_filtered_count(), 0u);
  EXPECT_EQ(result.trace.function_evaluations(), 30u);
  // Violations are detected from measured power after full evaluation.
  EXPECT_GT(result.trace.measured_violation_count(), 3u);
  // The incumbent never violates.
  ASSERT_TRUE(result.best.has_value());
  EXPECT_LE(*result.best->measured_power_w, 60.0);
}

TEST(RandomSearch, EarlyTerminationShortensDivergingRuns) {
  auto space = fake_space();
  FakeObjective obj(space);
  obj.set_diverge_above(0.5);  // half the b-range diverges
  OptimizerOptions opt = fixed_evals(40, 5);
  opt.use_early_termination = true;
  Optimizer rand(space, obj, {}, nullptr, opt,
                 std::make_unique<RandomSearchProposer>(space));
  const auto result = rand.run();
  EXPECT_GT(result.trace.early_terminated_count(), 5u);
  for (const auto& r : result.trace.records()) {
    if (r.status == EvaluationStatus::EarlyTerminated) {
      EXPECT_LT(r.cost_s, 2.0);  // a tenth of the full 10s
      EXPECT_TRUE(r.diverged);
    }
  }
}

TEST(RandomWalk, CentersProposalsOnIncumbent) {
  auto space = fake_space();
  FakeObjective obj(space, 1.0);
  RandomWalkOptions walk;
  walk.sigma0 = 0.05;
  Optimizer rw(space, obj, {}, nullptr, fixed_evals(60, 6),
               std::make_unique<RandomWalkProposer>(space, walk));
  const auto result = rw.run();
  ASSERT_TRUE(result.best.has_value());
  // With a tight walk the method should have drifted toward the optimum.
  EXPECT_LT(result.best->test_error, 0.05);
  // Late samples cluster near the optimum (0.3, 0.7).
  const auto& records = result.trace.records();
  double late_dist = 0.0;
  int n = 0;
  for (std::size_t i = records.size() - 10; i < records.size(); ++i) {
    late_dist += std::abs(records[i].config[0] - 0.3);
    ++n;
  }
  EXPECT_LT(late_dist / n, 0.25);
}

TEST(RandomWalk, InvalidSigmaThrows) {
  auto space = fake_space();
  FakeObjective obj(space);
  RandomWalkOptions walk;
  walk.sigma0 = 0.0;
  EXPECT_THROW(RandomWalkProposer(space, walk), std::invalid_argument);
}

TEST(BayesOpt, FindsOptimumFasterThanItsInitialDesign) {
  auto space = fake_space();
  FakeObjective obj(space, 1.0);
  BayesOptOptions bo;
  bo.initial_design = 4;
  bo.pool.lattice_points = 150;
  bo.pool.random_points = 50;
  Optimizer opt(space, obj, {}, nullptr, fixed_evals(20, 7),
                std::make_unique<BayesOptProposer>(
                    space, std::make_unique<HwIeciAcquisition>(), bo));
  const auto result = opt.run();
  ASSERT_TRUE(result.best.has_value());
  EXPECT_LT(result.best->test_error, 0.02);
  EXPECT_EQ(opt.name(), "HW-IECI");
}

TEST(BayesOpt, HwIeciNeverProposesPredictedViolations) {
  auto space = fake_space();
  FakeObjective obj(space, 1.0);
  const auto constraints = make_constraints(60.0);
  BayesOptOptions bo;
  bo.initial_design = 3;
  OptimizerOptions opt;
  opt.max_function_evaluations = 15;
  opt.max_samples = 500;
  opt.seed = 8;
  Optimizer ieci(space, obj, constraints.budgets(), &constraints, opt,
                 std::make_unique<BayesOptProposer>(
                     space, std::make_unique<HwIeciAcquisition>(), bo));
  const auto result = ieci.run();
  EXPECT_EQ(ieci.name(), "HW-IECI");
  // Once past the random initial design, every *trained* sample was
  // predicted feasible (model-filtered ones never reach the objective).
  for (const auto& r : result.trace.records()) {
    if (r.status == EvaluationStatus::Completed) {
      EXPECT_LE(r.config[0], 0.61) << "sample " << r.index;
    }
  }
  // And the optimum under the constraint is near a=0.3 (feasible anyway).
  ASSERT_TRUE(result.best.has_value());
  EXPECT_LT(result.best->test_error, 0.05);
}

TEST(BayesOpt, NullAcquisitionThrows) {
  auto space = fake_space();
  FakeObjective obj(space);
  EXPECT_THROW(BayesOptProposer(space, nullptr), std::invalid_argument);
}

TEST(BayesOpt, OverheadGrowsWithObservations) {
  auto space = fake_space();
  FakeObjective obj(space, 1.0);
  BayesOptOptions bo;
  Optimizer opt(space, obj, {}, nullptr, fixed_evals(10, 9),
                std::make_unique<BayesOptProposer>(
                    space, std::make_unique<HwIeciAcquisition>(), bo));
  const auto result = opt.run();
  const auto& rec = result.trace.records();
  // Timestamps spacing grows: later proposals pay larger model-fit cost.
  const double first_gap = rec[1].timestamp_s - rec[0].timestamp_s;
  const double last_gap =
      rec[rec.size() - 1].timestamp_s - rec[rec.size() - 2].timestamp_s;
  EXPECT_GT(last_gap, first_gap);
}

TEST(Optimizer, MaxSamplesGuardsAgainstFilterLoops) {
  auto space = fake_space();
  FakeObjective obj(space);
  // Budget 0: everything predicted infeasible, nothing ever trains.
  const auto constraints = make_constraints(0.0);
  OptimizerOptions opt;
  opt.max_samples = 25;
  opt.seed = 10;
  Optimizer rand(space, obj, constraints.budgets(), &constraints, opt,
                 std::make_unique<RandomSearchProposer>(space));
  const auto result = rand.run();
  EXPECT_EQ(result.trace.size(), 25u);
  EXPECT_EQ(obj.evaluations(), 0u);
  EXPECT_FALSE(result.best.has_value());
}

TEST(Optimizer, TimestampsAreMonotone) {
  auto space = fake_space();
  FakeObjective obj(space, 3.0);
  Optimizer rand(space, obj, {}, nullptr, fixed_evals(15, 11),
                 std::make_unique<RandomSearchProposer>(space));
  const auto result = rand.run();
  double prev = -1.0;
  for (const auto& r : result.trace.records()) {
    EXPECT_GT(r.timestamp_s, prev);
    prev = r.timestamp_s;
  }
}

TEST(Optimizer, IndicesAreSequential) {
  auto space = fake_space();
  FakeObjective obj(space);
  Optimizer rand(space, obj, {}, nullptr, fixed_evals(8, 12),
                 std::make_unique<RandomSearchProposer>(space));
  const auto result = rand.run();
  for (std::size_t i = 0; i < result.trace.size(); ++i) {
    EXPECT_EQ(result.trace.records()[i].index, i);
  }
}

/// A fleet stand-in that loses the last record of every round.
class ShortDispatcher final : public RoundDispatcher {
 public:
  [[nodiscard]] std::vector<EvaluationRecord> evaluate_round(
      std::vector<RoundJob> jobs) override {
    return std::vector<EvaluationRecord>(jobs.size() - 1);
  }
};

TEST(Optimizer, RejectsInvalidArguments) {
  const HyperParameterSpace space = fake_space();
  ShortDispatcher dispatcher;
  struct Case {
    const char* name;
    std::function<void(OptimizerOptions&, FakeObjective&)> edit;
    bool null_proposer = false;
    /// The constructor accepts the arguments and run() throws
    /// std::runtime_error; otherwise the constructor throws
    /// std::invalid_argument.
    bool throws_at_run = false;
  };
  const std::vector<Case> cases{
      {"zero max_samples",
       [](OptimizerOptions& o, FakeObjective&) { o.max_samples = 0; }},
      {"zero batch_size",
       [](OptimizerOptions& o, FakeObjective&) { o.batch_size = 0; }},
      {"zero num_threads",
       [](OptimizerOptions& o, FakeObjective&) { o.num_threads = 0; }},
      {"null proposer", [](OptimizerOptions&, FakeObjective&) {}, true},
      {"dispatcher with batch_size 1",
       [&](OptimizerOptions& o, FakeObjective&) {
         o.dispatcher = &dispatcher;
       }},
      {"dispatcher over a serial objective",
       [&](OptimizerOptions& o, FakeObjective& objective) {
         o.dispatcher = &dispatcher;
         o.batch_size = 4;
         objective.set_supports_concurrent(false);
       }},
      {"dispatcher returning fewer records than jobs",
       [&](OptimizerOptions& o, FakeObjective&) {
         o.dispatcher = &dispatcher;
         o.batch_size = 4;
       },
       false, true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    FakeObjective objective(space);
    OptimizerOptions options = fixed_evals(8);
    c.edit(options, objective);
    std::unique_ptr<Proposer> proposer;
    if (!c.null_proposer) {
      proposer = std::make_unique<RandomSearchProposer>(space);
    }
    if (c.throws_at_run) {
      Optimizer optimizer(space, objective, {}, nullptr, options,
                          std::move(proposer));
      EXPECT_THROW((void)optimizer.run(), std::runtime_error);
    } else {
      EXPECT_THROW((void)Optimizer(space, objective, {}, nullptr, options,
                                   std::move(proposer)),
                   std::invalid_argument);
    }
  }

  // make_proposer: the paper's name for each method, and the strategy's
  // own option checks pass through.
  const std::vector<std::pair<Method, std::string>> names{
      {Method::Rand, "Rand"},
      {Method::RandWalk, "Rand-Walk"},
      {Method::HwCwei, "HW-CWEI"},
      {Method::HwIeci, "HW-IECI"}};
  for (const auto& [method, name] : names) {
    EXPECT_EQ(make_proposer(method, space)->name(), name);
  }
  RandomWalkOptions walk;
  walk.sigma0 = 0.0;
  EXPECT_THROW((void)make_proposer(Method::RandWalk, space, walk),
               std::invalid_argument);
}

TEST(Optimizer, DeterministicForSeed) {
  auto space = fake_space();
  FakeObjective obj1(space), obj2(space);
  Optimizer a(space, obj1, {}, nullptr, fixed_evals(10, 77),
              std::make_unique<RandomSearchProposer>(space));
  Optimizer b(space, obj2, {}, nullptr, fixed_evals(10, 77),
              std::make_unique<RandomSearchProposer>(space));
  const auto ra = a.run();
  const auto rb = b.run();
  ASSERT_EQ(ra.trace.size(), rb.trace.size());
  for (std::size_t i = 0; i < ra.trace.size(); ++i) {
    EXPECT_EQ(ra.trace.records()[i].config, rb.trace.records()[i].config);
  }
}

}  // namespace
}  // namespace hp::core
