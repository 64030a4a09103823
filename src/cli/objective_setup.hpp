#pragma once
// Shared, print-free construction of the evaluation stack from optimize
// flags — the one code path both the `hyperpower optimize` scheduler and
// the `hpo-worker` fleet process run. Sharing it is a correctness
// requirement, not a convenience: the fleet's golden-trace guarantee
// needs worker-side evaluations bit-identical to in-process ones, which
// holds only if both processes build the same problem, device, testbed
// objective, fault decorator, and (deterministically trained or loaded)
// hardware fallback models from the same flag values.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cli/args.hpp"
#include "core/fault_injection.hpp"
#include "core/framework.hpp"
#include "testbed/testbed_objective.hpp"

namespace hp::cli {

/// The evaluation stack. Non-movable: framework and objective hold
/// references into sibling members, so instances live behind unique_ptr.
struct EvaluationStack {
  EvaluationStack() = default;
  EvaluationStack(const EvaluationStack&) = delete;
  EvaluationStack& operator=(const EvaluationStack&) = delete;

  core::BenchmarkProblem problem{core::mnist_problem()};
  hw::DeviceSpec device;
  core::ConstraintBudgets budgets;
  /// Evaluation fault rates plus the process-level chaos rates (worker
  /// kill/hang/reply-corrupt); the worker keys its chaos schedule off
  /// this even when failure_rate is 0.
  core::FaultSpec fault_spec;
  bool hyperpower_mode = true;
  std::unique_ptr<testbed::TestbedObjective> objective;
  /// Non-null when --fault-rate > 0; wraps *objective.
  std::unique_ptr<core::FaultInjectingObjective> faulty;
  std::unique_ptr<core::HyperPowerFramework> framework;
  /// True when hardware models were trained in-process (vs loaded from
  /// --power-model/--memory-model files or not needed).
  bool trained_models = false;
  std::size_t profiled_configs = 0;

  /// The objective the optimizer/worker must evaluate through (the fault
  /// decorator when present, else the testbed objective).
  [[nodiscard]] core::Objective& search_objective() {
    return faulty != nullptr ? static_cast<core::Objective&>(*faulty)
                             : *objective;
  }
};

/// Retry/seed/early-termination settings shared verbatim between the
/// optimizer's OptimizerOptions and the worker's ResilientEvaluator — split
/// out so both sides parse them once, identically.
struct EvaluationPolicy {
  std::uint64_t seed = 1;
  core::RetryPolicy retry;
  bool use_early_termination = true;
  core::EarlyTerminationRule early_termination;
};

/// Flags build_evaluation_stack / evaluation_policy consume; callers merge
/// these into their require_known lists.
[[nodiscard]] std::vector<std::string> evaluation_stack_flags();

/// Benchmark/device lookup by CLI name; throws std::invalid_argument on
/// unknown names (message lists the valid ones).
[[nodiscard]] core::BenchmarkProblem problem_by_name(const std::string& name);
[[nodiscard]] hw::DeviceSpec device_by_name(const std::string& name);

/// Builds the stack from parsed flags. Deterministic: two processes given
/// identical flag values produce bit-identical objectives and fallback
/// models (model training seeds are fixed, the profiler is simulated).
/// Throws std::invalid_argument on unknown problem/device/method values
/// and std::runtime_error on unreadable model files.
[[nodiscard]] std::unique_ptr<EvaluationStack> build_evaluation_stack(
    const Args& args);

[[nodiscard]] EvaluationPolicy evaluation_policy(const Args& args);

}  // namespace hp::cli
