#include "core/framework.hpp"

#include <stdexcept>
#include <utility>

#include "core/random_search.hpp"
#include "obs/obs.hpp"

namespace hp::core {

std::string to_string(Method method) {
  switch (method) {
    case Method::Rand:
      return "Rand";
    case Method::RandWalk:
      return "Rand-Walk";
    case Method::HwCwei:
      return "HW-CWEI";
    case Method::HwIeci:
      return "HW-IECI";
  }
  return "unknown";
}

std::unique_ptr<Proposer> make_proposer(Method method,
                                        const HyperParameterSpace& space,
                                        RandomWalkOptions walk,
                                        BayesOptOptions bo) {
  switch (method) {
    case Method::Rand:
      return std::make_unique<RandomSearchProposer>(space);
    case Method::RandWalk:
      return std::make_unique<RandomWalkProposer>(space, walk);
    case Method::HwCwei:
      return std::make_unique<BayesOptProposer>(
          space, std::make_unique<HwCweiAcquisition>(), std::move(bo));
    case Method::HwIeci:
      return std::make_unique<BayesOptProposer>(
          space, std::make_unique<HwIeciAcquisition>(), std::move(bo));
  }
  throw std::invalid_argument("make_proposer: unknown method");
}

std::vector<hw::ProfileSample> profile_random_architectures(
    const BenchmarkProblem& problem, hw::InferenceProfiler& profiler,
    std::size_t count, std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<nn::CnnSpec> specs;
  specs.reserve(count);
  for (std::size_t draws = 0; specs.size() < count && draws < 20 * count;
       ++draws) {
    nn::CnnSpec spec = problem.to_cnn_spec(problem.space().sample(rng));
    if (nn::is_feasible(spec)) specs.push_back(std::move(spec));
  }
  return profiler.profile_all(specs);
}

HyperPowerFramework::HyperPowerFramework(const BenchmarkProblem& problem,
                                         Objective& objective,
                                         ConstraintBudgets budgets)
    : problem_(problem), objective_(objective), budgets_(budgets) {}

std::size_t HyperPowerFramework::train_hardware_models(
    hw::InferenceProfiler& profiler, std::size_t num_samples,
    std::uint64_t seed, const HardwareModelOptions& options) {
  if (num_samples < kCrossValidationFolds) {
    throw std::invalid_argument(
        "train_hardware_models: need at least as many samples as CV folds");
  }
  const std::vector<hw::ProfileSample> samples =
      profile_random_architectures(problem_, profiler, num_samples, seed);
  if (samples.size() < kCrossValidationFolds) {
    throw std::runtime_error(
        "train_hardware_models: too few profiled samples for CV");
  }
  power_model_ = train_power_model(samples, options);
  memory_model_ = train_memory_model(samples, options);
  rebuild_constraints();
  if (obs::logger().enabled(obs::LogLevel::kInfo)) {
    obs::logger().info("framework.hw_models",
                       {{"requested", obs::JsonValue(num_samples)},
                        {"profiled", obs::JsonValue(samples.size())}});
  }
  return samples.size();
}

void HyperPowerFramework::set_hardware_models(
    std::optional<HardwareModel> power_model,
    std::optional<HardwareModel> memory_model) {
  power_model_.reset();
  memory_model_.reset();
  if (power_model) {
    power_model_ = TrainedHardwareModel{*std::move(power_model), {}, 0};
  }
  if (memory_model) {
    memory_model_ = TrainedHardwareModel{*std::move(memory_model), {}, 0};
  }
  rebuild_constraints();
}

bool HyperPowerFramework::has_hardware_models() const noexcept {
  return power_model_.has_value() || memory_model_.has_value();
}

void HyperPowerFramework::rebuild_constraints() {
  constraints_.emplace(
      budgets_,
      power_model_ ? std::optional<HardwareModel>(power_model_->model)
                   : std::nullopt,
      memory_model_ ? std::optional<HardwareModel>(memory_model_->model)
                    : std::nullopt);
}

std::unique_ptr<Optimizer> HyperPowerFramework::make_optimizer(
    const FrameworkOptions& options) {
  OptimizerOptions opt = options.optimizer;
  opt.use_hardware_models = options.hyperpower_mode;
  opt.use_early_termination = options.hyperpower_mode;

  if (opt.use_hardware_models && budgets_.any() && !constraints_.has_value()) {
    throw std::logic_error(
        "HyperPowerFramework: HyperPower mode with budgets requires trained "
        "hardware models (call train_hardware_models first)");
  }
  const HardwareConstraints* constraints =
      constraints_.has_value() ? &*constraints_ : nullptr;

  return std::make_unique<Optimizer>(
      problem_.space(), objective_, budgets_, constraints, std::move(opt),
      make_proposer(options.method, problem_.space(), options.walk,
                    options.bo));
}

FrameworkResult HyperPowerFramework::optimize(const FrameworkOptions& options) {
  std::unique_ptr<Optimizer> optimizer = make_optimizer(options);
  FrameworkResult result;
  result.method_name = optimizer->name();
  result.hyperpower_mode = options.hyperpower_mode;
  result.run = optimizer->run();
  return result;
}

}  // namespace hp::core
