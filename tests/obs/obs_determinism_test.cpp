// The observability hard invariant (DESIGN.md §9): logging and metrics are
// pure read-side. A batched run with the logger wide open at trace level,
// a JSONL sink attached, and metrics enabled — on 8 threads — must produce
// a bit-identical trace to a silent single-threaded run. Exercises the
// global logger()/metrics() singletons on purpose (that is what the
// instrumented layers use) and restores them afterwards.

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <string>

#include "core/optimizer.hpp"
#include "core/random_search.hpp"
#include "obs/obs.hpp"
#include "../core/fake_objective.hpp"

namespace hp::core {
namespace {

/// Turns the process-wide observability fully on for one scope: trace-level
/// JSONL sink plus enabled metrics; the destructor restores the silent
/// defaults so neighbouring tests see a dark logger.
class GlobalObsOn {
 public:
  explicit GlobalObsOn(const std::string& jsonl_path)
      : sink_(std::make_shared<obs::JsonlSink>(jsonl_path)) {
    obs::logger().set_level(obs::LogLevel::kTrace);
    obs::logger().add_sink(sink_, obs::LogLevel::kTrace);
    obs::metrics().set_enabled(true);
  }
  ~GlobalObsOn() {
    obs::logger().flush();
    obs::logger().clear_sinks();
    obs::logger().set_level(obs::LogLevel::kTrace);
    obs::metrics().set_enabled(false);
  }

 private:
  std::shared_ptr<obs::JsonlSink> sink_;
};

RunResult run_batched(std::size_t threads) {
  const HyperParameterSpace space = testing::fake_space();
  ConstraintBudgets budgets;
  budgets.power_w = 60.0;
  testing::FakeObjective objective(space);
  OptimizerOptions opt;
  opt.seed = 11;
  opt.max_function_evaluations = 20;
  opt.batch_size = 5;
  opt.num_threads = threads;
  opt.use_hardware_models = false;
  Optimizer optimizer(space, objective, budgets, nullptr, opt,
                      std::make_unique<RandomSearchProposer>(space));
  return optimizer.run();
}

void expect_same_trace(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    const EvaluationRecord& ra = a.trace.records()[i];
    const EvaluationRecord& rb = b.trace.records()[i];
    SCOPED_TRACE("record " + std::to_string(i));
    EXPECT_EQ(ra.config, rb.config);
    EXPECT_EQ(ra.status, rb.status);
    EXPECT_EQ(ra.test_error, rb.test_error);
    EXPECT_EQ(ra.cost_s, rb.cost_s);
    EXPECT_EQ(ra.timestamp_s, rb.timestamp_s);
    EXPECT_EQ(ra.index, rb.index);
  }
}

TEST(ObsDeterminismTest, LoggingOnVsOffLeavesTraceBitIdentical) {
  // Baseline: silent, sequential.
  const auto silent_one = run_batched(1);

  const std::string jsonl = ::testing::TempDir() + "obs_determinism.jsonl";
  std::size_t logged_lines = 0;
  {
    GlobalObsOn obs_on(jsonl);
    const auto loud_eight = run_batched(8);
    expect_same_trace(silent_one, loud_eight);

    const auto loud_one = run_batched(1);
    expect_same_trace(silent_one, loud_one);

    obs::logger().flush();
    std::ifstream is(jsonl);
    std::string line;
    while (std::getline(is, line)) {
      ASSERT_FALSE(line.empty());
      EXPECT_EQ(line.front(), '{');
      EXPECT_EQ(line.back(), '}');
      ++logged_lines;
    }
  }
  // The run actually logged (per-sample trace events at least), and the
  // teardown restored the silent defaults.
  EXPECT_GT(logged_lines, 0u);
  EXPECT_FALSE(obs::logger().enabled(obs::LogLevel::kError));
  EXPECT_FALSE(obs::metrics().enabled());

  // And a silent rerun after the loud ones still matches.
  expect_same_trace(silent_one, run_batched(8));
}

}  // namespace
}  // namespace hp::core
