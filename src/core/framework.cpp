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

bool is_bayesian(Method method) noexcept {
  return method == Method::HwCwei || method == Method::HwIeci;
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

HyperPowerFramework::HyperPowerFramework(const BenchmarkProblem& problem,
                                         Objective& objective,
                                         ConstraintBudgets budgets)
    : problem_(problem), objective_(objective), budgets_(budgets) {}

std::size_t HyperPowerFramework::train_hardware_models(
    hw::InferenceProfiler& profiler, std::size_t num_samples,
    std::uint64_t seed, const HardwareModelOptions& options) {
  if (num_samples < options.folds) {
    throw std::invalid_argument(
        "train_hardware_models: need at least as many samples as CV folds");
  }
  stats::Rng rng(seed);
  std::vector<nn::CnnSpec> specs;
  specs.reserve(num_samples);
  // Offline random sampling over the *structural* design space; infeasible
  // architectures are skipped by the profiler (as Caffe generation
  // failures are skipped in the paper's scripts).
  std::size_t attempts = 0;
  while (specs.size() < num_samples && attempts < num_samples * 20) {
    ++attempts;
    const Configuration config = problem_.space().sample(rng);
    nn::CnnSpec spec = problem_.to_cnn_spec(config);
    if (nn::is_feasible(spec)) specs.push_back(std::move(spec));
  }
  const std::vector<hw::ProfileSample> samples = profiler.profile_all(specs);
  if (samples.size() < options.folds) {
    throw std::runtime_error(
        "train_hardware_models: too few profiled samples for CV");
  }
  power_model_ = train_power_model(samples, options);
  memory_model_ = train_memory_model(samples, options);
  rebuild_constraints();
  if (obs::logger().enabled(obs::LogLevel::kInfo)) {
    obs::logger().info("framework.hw_models",
                       {{"requested", obs::JsonValue(num_samples)},
                        {"profiled", obs::JsonValue(samples.size())},
                        {"attempts", obs::JsonValue(attempts)}});
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
