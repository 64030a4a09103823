// Acceptance tests for the fault-tolerant evaluation pipeline (ISSUE 4):
//   1. a run with injected transient faults and periodic sensor failures
//      completes, recording every candidate exactly once;
//   2. a run killed mid-way and resumed from its journal produces a
//      bit-identical final trace (and journal) vs an uninterrupted run.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/fault_injection.hpp"
#include "core/framework.hpp"
#include "core/hw_models.hpp"
#include "core/optimizer.hpp"
#include "core/spaces.hpp"
#include "core/trace_io.hpp"
#include "hw/device.hpp"
#include "testbed/testbed_objective.hpp"

#include "../core/fake_objective.hpp"

namespace hp::core {
namespace {

using testing::FakeObjective;
using testing::fake_space;

std::string trace_csv(const RunTrace& trace) {
  std::ostringstream os;
  trace.write_csv(os);
  return os.str();
}

std::string file_contents(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

RetryPolicy fast_retries() {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_initial_s = 10.0;
  policy.backoff_jitter = 0.1;
  return policy;
}

TEST(FaultTolerance, FaultyTestbedRunRecordsEveryCandidateExactlyOnce) {
  // The full acceptance scenario: 20% of evaluation attempts throw
  // injected transient faults, the power sensor glitches periodically, and
  // the memory counter occasionally fails — yet the run completes with a
  // gapless trace.
  BenchmarkProblem problem = mnist_problem();
  testbed::TestbedOptions testbed_options =
      testbed::calibrated_options("mnist", hw::gtx1070());
  testbed_options.sensor_faults.failure_rate = 0.15;
  testbed_options.sensor_faults.fail_memory = true;
  testbed_options.sensor_faults.seed = 321;
  testbed_options.sensor_fallback_after = 3;
  testbed::TestbedObjective objective(problem, testbed::mnist_landscape(),
                                      hw::gtx1070(), testbed_options);
  // Fallback predictors (mnist z is 4-dimensional); accuracy is irrelevant
  // here, only that degraded samples get *some* prediction instead of
  // dying.
  const HardwareModel power_model(ModelForm::Linear,
                                  linalg::Vector{0.5, 1.0, -1.0, 0.02}, 40.0,
                                  2.0);
  const HardwareModel memory_model(ModelForm::Linear,
                                   linalg::Vector{2.0, 5.0, -3.0, 0.5}, 500.0,
                                   20.0);
  objective.set_fallback_models(&power_model, &memory_model);

  FaultSpec faults;
  faults.failure_rate = 0.2;
  faults.seed = 2024;
  FaultInjectingObjective faulty(objective, faults);

  OptimizerOptions options;
  options.max_function_evaluations = 25;
  options.seed = 5;
  options.retry = fast_retries();
  Optimizer optimizer(problem.space(), faulty, {}, nullptr, options,
                      make_proposer(Method::Rand, problem.space()));
  const RunResult result = optimizer.run();

  EXPECT_FALSE(result.aborted);
  EXPECT_EQ(result.trace.function_evaluations(), 25u);
  ASSERT_TRUE(result.best.has_value());
  // Every candidate exactly once, indices gapless and ordered.
  std::set<std::size_t> indices;
  for (const auto& record : result.trace.records()) {
    indices.insert(record.index);
  }
  EXPECT_EQ(indices.size(), result.trace.size());
  EXPECT_EQ(*indices.rbegin(), result.trace.size() - 1);
  // The faults actually fired and were absorbed.
  EXPECT_GT(faulty.injected_failures(), 0u);
  EXPECT_GT(result.trace.total_retries(), 0u);
  // Timestamps stay monotone through retries and failures.
  double prev = -1.0;
  for (const auto& record : result.trace.records()) {
    EXPECT_GT(record.timestamp_s, prev) << "sample " << record.index;
    prev = record.timestamp_s;
  }
}

TEST(FaultTolerance, PersistentlyBrokenEnvironmentAbortsInsteadOfSpinning) {
  auto space = fake_space();
  FakeObjective inner(space);
  FaultSpec faults;
  faults.failure_rate = 1.0;
  faults.transient_weight = 0.0;
  faults.persistent_weight = 1.0;
  FaultInjectingObjective faulty(inner, faults);
  OptimizerOptions options;
  options.max_function_evaluations = 50;
  options.seed = 6;
  options.retry.max_consecutive_failed_samples = 5;
  Optimizer optimizer(space, faulty, {}, nullptr, options,
                      make_proposer(Method::Rand, space));
  const RunResult result = optimizer.run();
  EXPECT_TRUE(result.aborted);
  EXPECT_FALSE(result.abort_reason.empty());
  EXPECT_FALSE(result.best.has_value());
  EXPECT_EQ(result.trace.failed_count(), 5u);
}

/// Runs the optimizer twice: once uninterrupted, once "crashed" after
/// @p keep completed records and resumed from the journal. Both traces and
/// both final journals must be bit-identical.
template <typename MakeOptimizer>
void expect_resume_bit_identical(const HyperParameterSpace& space,
                                 const MakeOptimizer& make_optimizer,
                                 OptimizerOptions options, std::size_t keep,
                                 const std::string& tag) {
  const std::string full_journal = temp_path("journal_full_" + tag + ".hpj");
  const std::string resumed_journal =
      temp_path("journal_resumed_" + tag + ".hpj");

  FaultSpec faults;
  faults.failure_rate = 0.2;
  faults.seed = 77;

  // Uninterrupted reference run (journaled, with live fault injection).
  options.journal_path = full_journal;
  FakeObjective reference_inner(space);
  FaultInjectingObjective reference_faulty(reference_inner, faults);
  auto reference = make_optimizer(reference_faulty, options);
  const RunResult uninterrupted = reference->run();
  ASSERT_GT(uninterrupted.trace.size(), keep);

  // "Crash": keep only the first @p keep journaled records.
  JournalLoadResult crashed = EvalJournal::load(full_journal);
  ASSERT_GE(crashed.records.size(), keep);
  crashed.records.resize(keep);

  // Fresh objective + optimizer, resumed from the truncated journal.
  options.journal_path = resumed_journal;
  FakeObjective resumed_inner(space);
  FaultInjectingObjective resumed_faulty(resumed_inner, faults);
  auto fresh = make_optimizer(resumed_faulty, options);
  const RunResult resumed = fresh->resume(crashed.records);

  EXPECT_EQ(trace_csv(resumed.trace), trace_csv(uninterrupted.trace))
      << tag << ": resumed trace differs from uninterrupted run";
  ASSERT_TRUE(uninterrupted.best.has_value());
  ASSERT_TRUE(resumed.best.has_value());
  EXPECT_EQ(resumed.best->config, uninterrupted.best->config);
  EXPECT_EQ(resumed.best->test_error, uninterrupted.best->test_error);
  // The rebuilt journal is byte-identical too: a second crash loses
  // nothing.
  EXPECT_EQ(file_contents(resumed_journal), file_contents(full_journal))
      << tag << ": resumed journal differs";
  std::remove(full_journal.c_str());
  std::remove(resumed_journal.c_str());
}

/// The optimizer factory expect_resume_bit_identical takes: @p method over
/// @p space, without budgets or a-priori models.
auto optimizer_for(const HyperParameterSpace& space, Method method) {
  return [&space, method](Objective& objective, OptimizerOptions options) {
    return std::make_unique<Optimizer>(space, objective, ConstraintBudgets{},
                                       nullptr, std::move(options),
                                       make_proposer(method, space));
  };
}

OptimizerOptions base_options(std::uint64_t seed, std::size_t evals) {
  OptimizerOptions options;
  options.max_function_evaluations = evals;
  options.seed = seed;
  options.retry = fast_retries();
  return options;
}

TEST(FaultTolerance, ResumeIsBitIdentical_RandSequential) {
  auto space = fake_space();
  expect_resume_bit_identical(space, optimizer_for(space, Method::Rand),
                              base_options(11, 20), 7, "rand_seq");
}

TEST(FaultTolerance, ResumeIsBitIdentical_RandBatchedParallel) {
  auto space = fake_space();
  OptimizerOptions options = base_options(12, 20);
  options.batch_size = 4;
  options.num_threads = 4;
  // 6 is mid-round for batch 4: the partial round must be dropped and
  // re-evaluated identically.
  expect_resume_bit_identical(space, optimizer_for(space, Method::Rand),
                              options, 6, "rand_batched");
}

TEST(FaultTolerance, ResumeIsBitIdentical_HwIeciSequential) {
  auto space = fake_space();
  expect_resume_bit_identical(space, optimizer_for(space, Method::HwIeci),
                              base_options(13, 10), 5, "ieci_seq");
}

TEST(FaultTolerance, ResumeIsBitIdentical_HwIeciBatched) {
  auto space = fake_space();
  OptimizerOptions options = base_options(14, 10);
  options.batch_size = 3;
  options.num_threads = 2;
  expect_resume_bit_identical(space, optimizer_for(space, Method::HwIeci),
                              options, 4, "ieci_batched");
}

TEST(FaultTolerance, ResumeFromEmptyJournalEqualsFreshRun) {
  auto space = fake_space();
  FakeObjective a_inner(space);
  Optimizer a(space, a_inner, {}, nullptr, base_options(15, 10),
              make_proposer(Method::Rand, space));
  const auto reference = a.run();
  FakeObjective b_inner(space);
  Optimizer b(space, b_inner, {}, nullptr, base_options(15, 10),
              make_proposer(Method::Rand, space));
  const auto resumed = b.resume({});
  EXPECT_EQ(trace_csv(resumed.trace), trace_csv(reference.trace));
}

TEST(FaultTolerance, ResumeRejectsMismatchedRecords) {
  auto space = fake_space();
  FakeObjective a_inner(space);
  Optimizer a(space, a_inner, {}, nullptr, base_options(16, 8),
              make_proposer(Method::Rand, space));
  const auto reference = a.run();
  // Same method, different seed: the replayed proposals cannot match.
  FakeObjective b_inner(space);
  Optimizer b(space, b_inner, {}, nullptr, base_options(17, 8),
              make_proposer(Method::Rand, space));
  EXPECT_THROW((void)b.resume(reference.trace.records()), std::runtime_error);
}

// A batched resume compares only its final kept round with the journal,
// so it must still reject a journal written under other options.
TEST(FaultTolerance, BatchedResumeRejectsAJournalOfOtherOptions) {
  auto space = fake_space();
  // Measured (and, here, predicted) power is 100 W per unit of x0.
  const auto constraints_at = [](double power_budget_w) {
    ConstraintBudgets budgets;
    budgets.power_w = power_budget_w;
    return HardwareConstraints(
        budgets,
        HardwareModel(ModelForm::Linear, linalg::Vector{100.0}, 0.0, 0.5),
        std::nullopt);
  };
  const HardwareConstraints written = constraints_at(60.0);
  OptimizerOptions options = base_options(18, 12);
  options.batch_size = 4;
  options.num_threads = 2;
  options.journal_path = temp_path("journal_other_options.hpj");
  FakeObjective inner(space);
  Optimizer original(space, inner, written.budgets(), &written, options,
                     make_proposer(Method::HwIeci, space));
  (void)original.run();
  std::vector<EvaluationRecord> records =
      EvalJournal::load(options.journal_path).records;
  std::remove(options.journal_path.c_str());
  ASSERT_GE(records.size(), 8u);
  options.journal_path.clear();

  // Another power budget.
  const HardwareConstraints other = constraints_at(45.0);
  FakeObjective other_inner(space);
  Optimizer other_budget(space, other_inner, other.budgets(), &other, options,
                         make_proposer(Method::HwIeci, space));
  EXPECT_THROW((void)other_budget.resume(records), std::runtime_error);

  // Default mode: no a-priori models, no early termination.
  OptimizerOptions default_mode = options;
  default_mode.use_hardware_models = false;
  default_mode.use_early_termination = false;
  FakeObjective default_inner(space);
  Optimizer default_run(space, default_inner, written.budgets(), &written,
                        default_mode, make_proposer(Method::HwIeci, space));
  EXPECT_THROW((void)default_run.resume(records), std::runtime_error);
}

}  // namespace
}  // namespace hp::core
