// Direct tests for cli::build_evaluation_stack / evaluation_policy — the
// one construction path the optimize scheduler AND the hpo-worker fleet
// process share. Until now these option combinations were only exercised
// indirectly through CLI integration runs; here each combination the
// journal/resume/fleet paths rely on is pinned at the unit level,
// including the bit-identity requirement between two processes (driver
// and worker) built from the same flag values.

#include "cli/objective_setup.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/model_io.hpp"

namespace hp::cli {
namespace {

Args parse(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return Args(static_cast<int>(argv.size()), argv.data());
}

TEST(ObjectiveSetup, DefaultsToMnistHyperPowerModeWithoutFaults) {
  const Args args = parse({});
  const auto stack = build_evaluation_stack(args);
  EXPECT_EQ(stack->problem.name(), "mnist");
  EXPECT_TRUE(stack->hyperpower_mode);
  EXPECT_FALSE(stack->budgets.any());
  // No budgets: nothing to filter against, so no models are trained.
  EXPECT_FALSE(stack->trained_models);
  EXPECT_FALSE(stack->framework->power_model().has_value());
  // No fault rate: the search objective IS the testbed objective.
  EXPECT_EQ(stack->faulty, nullptr);
  EXPECT_EQ(&stack->search_objective(),
            static_cast<core::Objective*>(stack->objective.get()));
}

TEST(ObjectiveSetup, DefaultModeFlagDisablesHyperPowerEnhancements) {
  const auto stack = build_evaluation_stack(parse({"--default-mode"}));
  EXPECT_FALSE(stack->hyperpower_mode);

  const EvaluationPolicy policy = evaluation_policy(parse({"--default-mode"}));
  EXPECT_FALSE(policy.use_early_termination);
  EXPECT_TRUE(evaluation_policy(parse({})).use_early_termination);
}

TEST(ObjectiveSetup, BudgetsInHyperPowerModeTrainHardwareModels) {
  const auto stack = build_evaluation_stack(
      parse({"--problem", "tiny_mnist", "--power-budget", "60",
             "--profile-samples", "30"}));
  ASSERT_TRUE(stack->budgets.power_w.has_value());
  EXPECT_DOUBLE_EQ(*stack->budgets.power_w, 60.0);
  EXPECT_TRUE(stack->trained_models);
  EXPECT_EQ(stack->profiled_configs, 30u);
  EXPECT_TRUE(stack->framework->power_model().has_value());
  EXPECT_TRUE(stack->framework->memory_model().has_value());
}

TEST(ObjectiveSetup, BudgetsInDefaultModeSkipModelTraining) {
  // The paper's fixed-evaluations comparison: budgets are set but the
  // default-mode run trains every candidate — no a-priori models.
  const auto stack = build_evaluation_stack(
      parse({"--problem", "tiny_mnist", "--power-budget", "60",
             "--default-mode"}));
  EXPECT_FALSE(stack->trained_models);
  EXPECT_FALSE(stack->framework->power_model().has_value());
}

// The fleet's golden-trace guarantee: a worker process and the driver,
// given identical flag values, must build bit-identical fallback models
// (fixed simulator + sampling seeds). A drifting weight would silently
// de-synchronize worker-side evaluations from in-process ones.
TEST(ObjectiveSetup, TwoStacksFromIdenticalFlagsTrainBitIdenticalModels) {
  const auto flags = {"--problem", "tiny_mnist", "--power-budget", "60",
                      "--memory-budget", "900", "--profile-samples", "30"};
  const auto driver = build_evaluation_stack(parse(flags));
  const auto worker = build_evaluation_stack(parse(flags));
  ASSERT_TRUE(driver->framework->power_model().has_value());
  ASSERT_TRUE(worker->framework->power_model().has_value());
  const core::HardwareModel& a = driver->framework->power_model()->model;
  const core::HardwareModel& b = worker->framework->power_model()->model;
  EXPECT_EQ(a.weights().raw(), b.weights().raw());  // bit-exact doubles
  EXPECT_EQ(a.intercept(), b.intercept());
  EXPECT_EQ(a.residual_sd(), b.residual_sd());
  const core::HardwareModel& ma = driver->framework->memory_model()->model;
  const core::HardwareModel& mb = worker->framework->memory_model()->model;
  EXPECT_EQ(ma.weights().raw(), mb.weights().raw());
}

TEST(ObjectiveSetup, ModelFilesLoadInsteadOfTraining) {
  const std::string power_path =
      std::string(::testing::TempDir()) + "/setup_power.hpm";
  const std::string memory_path =
      std::string(::testing::TempDir()) + "/setup_memory.hpm";
  const auto trained = build_evaluation_stack(
      parse({"--problem", "tiny_mnist", "--power-budget", "60",
             "--memory-budget", "900", "--profile-samples", "30"}));
  core::save_hardware_model_file(trained->framework->power_model()->model,
                                 power_path);
  core::save_hardware_model_file(trained->framework->memory_model()->model,
                                 memory_path);

  // `hyperpower train` amortization: a stack pointed at the saved files
  // loads them instead of re-profiling, and predicts identically.
  const auto loaded = build_evaluation_stack(
      parse({"--problem", "tiny_mnist", "--power-budget", "60",
             "--memory-budget", "900", "--power-model", power_path.c_str(),
             "--memory-model", memory_path.c_str()}));
  EXPECT_FALSE(loaded->trained_models);
  EXPECT_EQ(loaded->profiled_configs, 0u);
  ASSERT_TRUE(loaded->framework->power_model().has_value());
  EXPECT_EQ(loaded->framework->power_model()->model.weights().raw(),
            trained->framework->power_model()->model.weights().raw());
  std::remove(power_path.c_str());
  std::remove(memory_path.c_str());
}

TEST(ObjectiveSetup, FaultRateWrapsTheObjectiveInTheDecorator) {
  const auto stack = build_evaluation_stack(
      parse({"--fault-rate", "0.25", "--fault-seed", "99"}));
  ASSERT_NE(stack->faulty, nullptr);
  EXPECT_EQ(&stack->search_objective(),
            static_cast<core::Objective*>(stack->faulty.get()));
  EXPECT_DOUBLE_EQ(stack->fault_spec.failure_rate, 0.25);
  EXPECT_EQ(stack->fault_spec.seed, 99u);
}

// Fleet chaos flags reach the worker through fault_spec even when the
// evaluation-level failure rate is zero: the worker keys its kill/hang/
// corrupt schedule off the spec, while the driver-side objective stays
// undecorated. A driver that wrapped the objective for process-level
// chaos would double-inject.
TEST(ObjectiveSetup, WorkerChaosRatesParseWithoutDecoratingTheDriver) {
  const auto stack = build_evaluation_stack(
      parse({"--worker-kill-rate", "0.1", "--worker-hang-rate", "0.05",
             "--reply-corrupt-rate", "0.02"}));
  EXPECT_EQ(stack->faulty, nullptr);  // failure_rate is 0: no decorator
  EXPECT_DOUBLE_EQ(stack->fault_spec.worker_kill_rate, 0.1);
  EXPECT_DOUBLE_EQ(stack->fault_spec.worker_hang_rate, 0.05);
  EXPECT_DOUBLE_EQ(stack->fault_spec.reply_corrupt_rate, 0.02);
  EXPECT_DOUBLE_EQ(stack->fault_spec.failure_rate, 0.0);
}

TEST(ObjectiveSetup, UnknownProblemAndDeviceThrow) {
  EXPECT_THROW((void)build_evaluation_stack(parse({"--problem", "imagenet"})),
               std::invalid_argument);
  EXPECT_THROW((void)build_evaluation_stack(parse({"--device", "TPUv9"})),
               std::invalid_argument);
  EXPECT_THROW((void)build_evaluation_stack(
                   parse({"--power-model", "/no/such/file.hpm",
                          "--power-budget", "60"})),
               std::runtime_error);
}

TEST(ObjectiveSetup, EvaluationPolicyParsesRetrySettings) {
  const EvaluationPolicy policy =
      evaluation_policy(parse({"--seed", "17", "--retries", "3"}));
  EXPECT_EQ(policy.seed, 17u);
  EXPECT_EQ(policy.retry.max_attempts, 4u);  // retries + the first attempt

  const EvaluationPolicy defaults = evaluation_policy(parse({}));
  EXPECT_EQ(defaults.seed, 1u);
  EXPECT_EQ(defaults.retry.max_attempts, core::RetryPolicy{}.max_attempts);
}

// The flag list is what the scheduler and the worker merge into their
// require_known sets; every flag the builder consumes must be in it, or a
// valid fleet command line would be rejected as unknown.
TEST(ObjectiveSetup, EvaluationStackFlagsCoverEveryConsumedFlag) {
  const Args args = parse(
      {"--problem", "tiny_mnist", "--device", "GTX 1070", "--power-budget",
       "60", "--memory-budget", "900", "--default-mode", "--seed", "3",
       "--retries", "1", "--fault-rate", "0.1",
       "--fault-seed", "5", "--sensor-fault-rate", "0.1",
       "--worker-kill-rate", "0.1", "--worker-hang-rate", "0.1",
       "--reply-corrupt-rate", "0.1", "--power-model", "p.hpm",
       "--memory-model", "m.hpm", "--profile-samples", "20"});
  EXPECT_NO_THROW(args.require_known(evaluation_stack_flags()));
}

}  // namespace
}  // namespace hp::cli
