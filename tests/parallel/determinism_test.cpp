// The batched optimizer's core contract: a run is a pure function of
// (seed, batch_size) — the number of threads evaluating a round must not
// change a single bit of the trace. Verified trace-for-trace across all
// four methods on the full testbed stack, and at the unit level on the
// fake objective.

#include <gtest/gtest.h>

#include <memory>

#include "core/framework.hpp"
#include "core/random_search.hpp"
#include "obs/obs.hpp"
#include "testbed/testbed_objective.hpp"
#include "../core/fake_objective.hpp"

namespace hp::core {
namespace {

void expect_same_record(const EvaluationRecord& a, const EvaluationRecord& b,
                        std::size_t i, const std::string& label) {
  SCOPED_TRACE(label + " record " + std::to_string(i));
  EXPECT_EQ(a.config, b.config);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.test_error, b.test_error);
  EXPECT_EQ(a.diverged, b.diverged);
  EXPECT_EQ(a.measured_power_w.has_value(), b.measured_power_w.has_value());
  if (a.measured_power_w && b.measured_power_w) {
    EXPECT_EQ(*a.measured_power_w, *b.measured_power_w);
  }
  EXPECT_EQ(a.measured_memory_mb.has_value(),
            b.measured_memory_mb.has_value());
  if (a.measured_memory_mb && b.measured_memory_mb) {
    EXPECT_EQ(*a.measured_memory_mb, *b.measured_memory_mb);
  }
  EXPECT_EQ(a.violates_constraints, b.violates_constraints);
  EXPECT_EQ(a.cost_s, b.cost_s);
  EXPECT_EQ(a.timestamp_s, b.timestamp_s);
  EXPECT_EQ(a.index, b.index);
}

void expect_same_result(const RunResult& a, const RunResult& b,
                        const std::string& label) {
  ASSERT_EQ(a.trace.size(), b.trace.size()) << label;
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    expect_same_record(a.trace.records()[i], b.trace.records()[i], i, label);
  }
  ASSERT_EQ(a.best.has_value(), b.best.has_value()) << label;
  if (a.best && b.best) {
    EXPECT_EQ(a.best->config, b.best->config) << label;
    EXPECT_EQ(a.best->test_error, b.best->test_error) << label;
  }
}

TEST(ParallelDeterminismTest, FakeObjectiveBatchedRunIsThreadCountInvariant) {
  const HyperParameterSpace space = testing::fake_space();
  ConstraintBudgets budgets;
  budgets.power_w = 60.0;

  auto run_with_threads = [&](std::size_t threads) {
    testing::FakeObjective objective(space);
    OptimizerOptions opt;
    opt.seed = 42;
    opt.max_function_evaluations = 24;
    opt.batch_size = 5;
    opt.num_threads = threads;
    opt.use_hardware_models = false;
    Optimizer optimizer(space, objective, budgets, nullptr, opt,
                        std::make_unique<RandomSearchProposer>(space));
    return optimizer.run();
  };

  const auto one = run_with_threads(1);
  const auto eight = run_with_threads(8);
  EXPECT_EQ(one.trace.function_evaluations(), 24u);
  expect_same_result(one, eight, "fake");
}

TEST(ParallelDeterminismTest, SerialObjectiveFallbackIsThreadCountInvariant) {
  // With supports_concurrent_evaluation() off, evaluation happens in the
  // merge phase — threads still propose/filter in parallel, and the result
  // must stay identical.
  const HyperParameterSpace space = testing::fake_space();
  ConstraintBudgets budgets;

  auto run_with_threads = [&](std::size_t threads) {
    testing::FakeObjective objective(space);
    objective.set_supports_concurrent(false);
    OptimizerOptions opt;
    opt.seed = 9;
    opt.max_function_evaluations = 12;
    opt.batch_size = 4;
    opt.num_threads = threads;
    opt.use_hardware_models = false;
    Optimizer optimizer(space, objective, budgets, nullptr, opt,
                        std::make_unique<RandomSearchProposer>(space));
    return optimizer.run();
  };

  expect_same_result(run_with_threads(1), run_with_threads(8), "serial");
}

class TestbedDeterminismTest : public ::testing::Test {
 protected:
  TestbedDeterminismTest() : problem_(mnist_problem()) {
    budgets_.power_w = 85.0;
    budgets_.memory_mb = 680.0;
  }

  /// One full framework run (fresh objective each time: the virtual clock
  /// and sensor streams start from scratch, like a real experiment).
  RunResult run(Method method, std::size_t threads) {
    testbed::TestbedObjective objective(
        problem_, testbed::mnist_landscape(), hw::gtx1070(),
        testbed::calibrated_options("mnist", hw::gtx1070()));
    HyperPowerFramework fw(problem_, objective, budgets_);
    hw::GpuSimulator sim(hw::gtx1070(), 33);
    hw::InferenceProfiler profiler(sim);
    (void)fw.train_hardware_models(profiler, 60, 21);

    FrameworkOptions opt;
    opt.method = method;
    opt.hyperpower_mode = true;
    opt.optimizer.seed = 7;
    opt.optimizer.max_function_evaluations = 6;
    opt.optimizer.max_samples = 400;
    opt.optimizer.batch_size = 4;
    opt.optimizer.num_threads = threads;
    // Small acquisition pool keeps the two BO methods fast; determinism
    // does not depend on pool size.
    opt.bo.pool.lattice_points = 120;
    opt.bo.pool.random_points = 60;
    return fw.optimize(opt).run;
  }

  BenchmarkProblem problem_;
  ConstraintBudgets budgets_;
};

TEST_F(TestbedDeterminismTest, AllFourMethodsAreThreadCountInvariant) {
  for (Method method : {Method::Rand, Method::RandWalk, Method::HwCwei,
                        Method::HwIeci}) {
    const auto one = run(method, 1);
    const auto eight = run(method, 8);
    expect_same_result(one, eight, to_string(method));
    EXPECT_GT(one.trace.size(), 0u) << to_string(method);
  }
}

namespace {

/// Discards everything; its presence alone arms every logger().enabled()
/// branch in the instrumented layers.
class NullSink final : public obs::LogSink {
 public:
  void write(const obs::LogEvent&) override {}
};

/// Scope guard: observability wide open on entry, silent defaults on exit.
class GlobalObsOn {
 public:
  GlobalObsOn() : sink_(std::make_shared<NullSink>()) {
    obs::logger().add_sink(sink_, obs::LogLevel::kTrace);
    obs::metrics().set_enabled(true);
  }
  ~GlobalObsOn() {
    obs::logger().clear_sinks();
    obs::metrics().set_enabled(false);
  }

 private:
  std::shared_ptr<obs::LogSink> sink_;
};

}  // namespace

TEST_F(TestbedDeterminismTest, ObservabilityIsPureReadSideForAllMethods) {
  // DESIGN.md §9: enabling trace-level logging plus metrics on an 8-thread
  // run must not change a bit versus the silent single-threaded run.
  for (Method method : {Method::Rand, Method::RandWalk, Method::HwCwei,
                        Method::HwIeci}) {
    const auto silent_one = run(method, 1);
    GlobalObsOn obs_on;
    const auto loud_eight = run(method, 8);
    expect_same_result(silent_one, loud_eight,
                       std::string("obs ") + to_string(method));
  }
}

}  // namespace
}  // namespace hp::core
