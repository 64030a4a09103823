#include "cli/objective_setup.hpp"

#include <stdexcept>
#include <utility>

#include "core/model_io.hpp"
#include "hw/profiler.hpp"

namespace hp::cli {

namespace {

testbed::LandscapeParams landscape_by_name(const std::string& name) {
  return name == "cifar10" || name == "tiny_cifar"
             ? testbed::cifar10_landscape()
             : testbed::mnist_landscape();
}

}  // namespace

core::BenchmarkProblem problem_by_name(const std::string& name) {
  if (name == "mnist") return core::mnist_problem();
  if (name == "cifar10") return core::cifar10_problem();
  if (name == "tiny_mnist") return core::tiny_mnist_problem();
  if (name == "tiny_cifar") return core::tiny_cifar_problem();
  throw std::invalid_argument("unknown problem '" + name +
                              "' (mnist|cifar10|tiny_mnist|tiny_cifar)");
}

hw::DeviceSpec device_by_name(const std::string& name) {
  const auto device = hw::find_device(name);
  if (!device) {
    throw std::invalid_argument("unknown device '" + name +
                                "' (see `hyperpower devices`)");
  }
  return *device;
}

std::vector<std::string> evaluation_stack_flags() {
  return {"problem",            "device",             "power-budget",
          "memory-budget",      "default-mode",       "seed",
          "retries",            "fault-rate",         "fault-seed",
          "sensor-fault-rate",  "worker-kill-rate",   "worker-hang-rate",
          "reply-corrupt-rate", "power-model",        "memory-model",
          "profile-samples"};
}

std::unique_ptr<EvaluationStack> build_evaluation_stack(const Args& args) {
  auto stack = std::make_unique<EvaluationStack>();
  const std::string problem_name = args.get_or("problem", "mnist");
  stack->problem = problem_by_name(problem_name);
  stack->device = device_by_name(args.get_or("device", "GTX 1070"));
  stack->budgets.power_w = args.get_double("power-budget");
  stack->budgets.memory_mb = args.get_double("memory-budget");
  stack->hyperpower_mode = !args.has("default-mode");

  stack->fault_spec.failure_rate = args.get_double_or("fault-rate", 0.0);
  stack->fault_spec.seed =
      static_cast<std::uint64_t>(args.get_int_or("fault-seed", 1234));
  stack->fault_spec.worker_kill_rate =
      args.get_double_or("worker-kill-rate", 0.0);
  stack->fault_spec.worker_hang_rate =
      args.get_double_or("worker-hang-rate", 0.0);
  stack->fault_spec.reply_corrupt_rate =
      args.get_double_or("reply-corrupt-rate", 0.0);

  testbed::TestbedOptions testbed_options =
      testbed::calibrated_options(stack->problem.name(), stack->device);
  testbed_options.sensor_faults.failure_rate =
      args.get_double_or("sensor-fault-rate", 0.0);
  testbed_options.sensor_faults.seed = stack->fault_spec.seed;
  stack->objective = std::make_unique<testbed::TestbedObjective>(
      stack->problem, landscape_by_name(problem_name), stack->device,
      testbed_options);

  if (stack->fault_spec.failure_rate > 0.0) {
    stack->faulty = std::make_unique<core::FaultInjectingObjective>(
        *stack->objective, stack->fault_spec);
  }
  stack->framework = std::make_unique<core::HyperPowerFramework>(
      stack->problem, stack->search_objective(), stack->budgets);

  if (stack->hyperpower_mode && stack->budgets.any()) {
    if (args.has("power-model") || args.has("memory-model")) {
      // Reuse models saved by `hyperpower train` — the paper's offline
      // phase run once, amortized over many searches.
      std::optional<core::HardwareModel> power, memory;
      if (const auto path = args.get("power-model")) {
        power = core::load_hardware_model_file(*path);
      }
      if (const auto path = args.get("memory-model")) {
        memory = core::load_hardware_model_file(*path);
      }
      stack->framework->set_hardware_models(std::move(power),
                                            std::move(memory));
    } else {
      // Fixed seeds (simulator 7, sampling 2018): every process that runs
      // this — scheduler or worker — trains bit-identical models.
      hw::GpuSimulator simulator(stack->device, 7);
      hw::InferenceProfiler profiler(simulator);
      stack->profiled_configs = stack->framework->train_hardware_models(
          profiler,
          static_cast<std::size_t>(args.get_int_or("profile-samples", 80)),
          2018);
      stack->trained_models = true;
    }
  }

  // Whatever predictive models exist double as sensor fallbacks: when the
  // live power/memory counters stay dark, measurements degrade to model
  // predictions (measured=false) instead of failing the candidate.
  if (stack->framework->power_model()) {
    stack->objective->set_fallback_models(
        &stack->framework->power_model()->model,
        stack->framework->memory_model()
            ? &stack->framework->memory_model()->model
            : nullptr);
  }
  return stack;
}

EvaluationPolicy evaluation_policy(const Args& args) {
  EvaluationPolicy policy;
  policy.seed = static_cast<std::uint64_t>(args.get_int_or("seed", 1));
  if (const auto retries = args.get_uint("retries")) {
    policy.retry.max_attempts = *retries + 1;
  }
  policy.use_early_termination = !args.has("default-mode");
  return policy;
}

}  // namespace hp::cli
