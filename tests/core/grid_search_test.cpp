#include "core/grid_search.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>

#include "core/optimizer.hpp"
#include "fake_objective.hpp"

namespace hp::core {
namespace {

using testing::FakeObjective;
using testing::fake_space;

OptimizerOptions fixed_evals(std::size_t n) {
  OptimizerOptions opt;
  opt.max_function_evaluations = n;
  opt.seed = 1;
  return opt;
}

TEST(GridSearch, ValidatesLevels) {
  auto space = fake_space();
  GridSearchOptions grid;
  grid.levels_per_dimension = 1;
  EXPECT_THROW(GridSearchProposer(space, grid), std::invalid_argument);
}

TEST(GridSearch, GridSizeIsLevelsToTheD) {
  auto space = fake_space();
  GridSearchOptions grid;
  grid.levels_per_dimension = 4;
  const GridSearchProposer gs(space, grid);
  EXPECT_EQ(gs.grid_size(), 16u);
  EXPECT_EQ(gs.name(), "Grid");
}

TEST(GridSearch, VisitsEveryGridPointExactlyOnce) {
  auto space = fake_space();
  FakeObjective obj(space, 1.0);
  GridSearchOptions grid;
  grid.levels_per_dimension = 3;
  Optimizer gs(space, obj, {}, nullptr, fixed_evals(9),
               std::make_unique<GridSearchProposer>(space, grid));
  const auto result = gs.run();
  std::set<std::pair<double, double>> visited;
  for (const auto& r : result.trace.records()) {
    visited.insert({r.config[0], r.config[1]});
  }
  EXPECT_EQ(visited.size(), 9u);  // all distinct
  // Level centers: 1/6, 3/6, 5/6 in unit coordinates.
  for (const auto& [a, b] : visited) {
    bool level_a = false;
    for (double c : {1.0 / 6, 3.0 / 6, 5.0 / 6}) {
      if (std::abs(a - c) < 1e-12) level_a = true;
    }
    EXPECT_TRUE(level_a) << a;
  }
}

TEST(GridSearch, DeterministicAcrossRuns) {
  auto space = fake_space();
  FakeObjective obj1(space), obj2(space);
  GridSearchOptions grid;
  Optimizer a(space, obj1, {}, nullptr, fixed_evals(6),
              std::make_unique<GridSearchProposer>(space, grid));
  Optimizer b(space, obj2, {}, nullptr, fixed_evals(6),
              std::make_unique<GridSearchProposer>(space, grid));
  const auto ra = a.run();
  const auto rb = b.run();
  for (std::size_t i = 0; i < ra.trace.size(); ++i) {
    EXPECT_EQ(ra.trace.records()[i].config, rb.trace.records()[i].config);
  }
}

TEST(GridSearch, StopsAtExhaustionByDefault) {
  auto space = fake_space();
  FakeObjective obj(space, 1.0);
  GridSearchOptions grid;
  grid.levels_per_dimension = 2;  // 4 points
  auto proposer = std::make_unique<GridSearchProposer>(space, grid);
  const GridSearchProposer& cursor = *proposer;
  Optimizer gs(space, obj, {}, nullptr, fixed_evals(10), std::move(proposer));
  const auto result = gs.run();
  // Budget allows 10 evaluations, but the grid only has 4 distinct points:
  // the proposer reports exhausted() and the run ends without repeats.
  EXPECT_EQ(result.trace.size(), 4u);
  EXPECT_TRUE(cursor.exhausted());
  std::set<std::pair<double, double>> visited;
  for (const auto& r : result.trace.records()) {
    visited.insert({r.config[0], r.config[1]});
  }
  EXPECT_EQ(visited.size(), 4u);
}

TEST(GridSearch, FinalShortBatchIsTruncatedNotPadded) {
  auto space = fake_space();
  FakeObjective obj(space, 1.0);
  GridSearchOptions grid;
  grid.levels_per_dimension = 3;  // 9 points
  OptimizerOptions opt = fixed_evals(20);
  opt.batch_size = 4;  // rounds of 4: 4 + 4 + (short) 1
  Optimizer gs(space, obj, {}, nullptr, opt,
               std::make_unique<GridSearchProposer>(space, grid));
  const auto result = gs.run();
  // Previously the 3rd round was padded to 4 by wrapping the cursor and
  // re-proposing already-visited points; now it is truncated to the one
  // remaining grid point.
  EXPECT_EQ(result.trace.size(), 9u);
  std::set<std::pair<double, double>> visited;
  for (const auto& r : result.trace.records()) {
    visited.insert({r.config[0], r.config[1]});
  }
  EXPECT_EQ(visited.size(), 9u);  // every point exactly once, no repeats
}

TEST(GridSearch, CoarseGridMissesSharpOptimum) {
  // The paper's point: the optimum (0.3, 0.7) sits between the 2-level
  // grid points, so grid search cannot approach it the way random/BO can.
  auto space = fake_space();
  FakeObjective obj(space, 1.0);
  GridSearchOptions grid;
  grid.levels_per_dimension = 2;  // points at 0.25 / 0.75 only
  Optimizer gs(space, obj, {}, nullptr, fixed_evals(4),
               std::make_unique<GridSearchProposer>(space, grid));
  const auto result = gs.run();
  ASSERT_TRUE(result.best.has_value());
  // Best grid point (0.25, 0.75): error = 0.0025 + 0.5*0.0025 = 0.00375 —
  // bounded away from the true optimum 0.
  EXPECT_NEAR(result.best->test_error, 0.00375, 1e-9);
}

TEST(GridSearch, RespectsModelFilter) {
  auto space = fake_space();
  FakeObjective obj(space);
  ConstraintBudgets budgets;
  budgets.power_w = 40.0;  // only a <= 0.4 feasible
  HardwareConstraints constraints(
      budgets, HardwareModel(ModelForm::Linear, linalg::Vector{100.0}, 0.0, 1.0),
      std::nullopt);
  OptimizerOptions opt;
  opt.max_samples = 9;
  GridSearchOptions grid;
  grid.levels_per_dimension = 3;
  Optimizer gs(space, obj, budgets, &constraints, opt,
               std::make_unique<GridSearchProposer>(space, grid));
  const auto result = gs.run();
  // Grid levels for a: 1/6 (~17W), 3/6 (50W), 5/6 (83W): 6 of 9 filtered.
  EXPECT_EQ(result.trace.model_filtered_count(), 6u);
  EXPECT_EQ(result.trace.function_evaluations(), 3u);
}

}  // namespace
}  // namespace hp::core
