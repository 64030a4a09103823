#pragma once
// The HyperPower framework facade (Figure 2): the ML practitioner provides
// the NN design space (a BenchmarkProblem), the target platform (via the
// profiler used to train the hardware models), the power/memory budgets and
// the iteration/time budget; the framework returns the best NN satisfying
// the constraints. All four methods — Rand, Rand-Walk, HW-CWEI, HW-IECI —
// are available, each in HyperPower mode (a-priori models + early
// termination) or "default" mode (the constraint-unaware exhaustive
// counterpart used as the paper's baseline). The methods differ only in
// their Proposer; make_proposer builds it, and one core::Optimizer runs
// every method.

#include <memory>
#include <optional>
#include <string>

#include "core/bayes_opt.hpp"
#include "core/hw_models.hpp"
#include "core/objective.hpp"
#include "core/optimizer.hpp"
#include "core/random_walk.hpp"
#include "core/spaces.hpp"
#include "hw/profiler.hpp"

namespace hp::core {

/// The four optimization methods of Section 3.
enum class Method { Rand, RandWalk, HwCwei, HwIeci };

[[nodiscard]] std::string to_string(Method method);
[[nodiscard]] bool is_bayesian(Method method) noexcept;

/// The proposal strategy of @p method over @p space: RandomSearchProposer,
/// RandomWalkProposer (@p walk), or BayesOptProposer (@p bo) with the
/// HW-CWEI / HW-IECI acquisition. Options a method does not use are
/// ignored. Throws std::invalid_argument when the strategy rejects its
/// options (e.g. a non-positive walk.sigma0).
[[nodiscard]] std::unique_ptr<Proposer> make_proposer(
    Method method, const HyperParameterSpace& space,
    RandomWalkOptions walk = {}, BayesOptOptions bo = {});

/// Per-run options.
struct FrameworkOptions {
  Method method = Method::HwIeci;
  /// true = HyperPower (a-priori models + early termination);
  /// false = the paper's "default" exhaustive counterpart. Overrides
  /// optimizer.use_hardware_models / use_early_termination.
  bool hyperpower_mode = true;
  OptimizerOptions optimizer{};
  RandomWalkOptions walk{};
  BayesOptOptions bo{};
};

/// Everything one optimization run produced.
struct FrameworkResult {
  std::string method_name;
  bool hyperpower_mode = true;
  RunResult run;
};

/// Facade wiring problem + objective + hardware models + method.
class HyperPowerFramework {
 public:
  /// @param problem design space and architecture mapping.
  /// @param objective the expensive training/measurement function; must
  ///        outlive the framework.
  /// @param budgets the practitioner's power/memory budgets.
  HyperPowerFramework(const BenchmarkProblem& problem, Objective& objective,
                      ConstraintBudgets budgets);

  /// Offline phase (Section 3.3): samples @p num_samples random
  /// architectures from the design space, profiles them on @p profiler's
  /// device, and trains the power/memory models by 10-fold CV.
  /// Returns the number of successfully profiled configurations.
  std::size_t train_hardware_models(hw::InferenceProfiler& profiler,
                                    std::size_t num_samples,
                                    std::uint64_t seed,
                                    const HardwareModelOptions& options = {});

  /// Installs externally trained models (e.g. from a saved profile run).
  void set_hardware_models(std::optional<HardwareModel> power_model,
                           std::optional<HardwareModel> memory_model);

  [[nodiscard]] bool has_hardware_models() const noexcept;
  [[nodiscard]] const std::optional<TrainedHardwareModel>& power_model()
      const noexcept {
    return power_model_;
  }
  [[nodiscard]] const std::optional<TrainedHardwareModel>& memory_model()
      const noexcept {
    return memory_model_;
  }

  /// Runs one optimization with the given method/mode. Requires trained
  /// hardware models when options.hyperpower_mode is true and budgets are
  /// set; throws std::logic_error otherwise.
  [[nodiscard]] FrameworkResult optimize(const FrameworkOptions& options);

  /// Builds the optimizer without running it (for custom loops/tests).
  [[nodiscard]] std::unique_ptr<Optimizer> make_optimizer(
      const FrameworkOptions& options);

  [[nodiscard]] const BenchmarkProblem& problem() const noexcept {
    return problem_;
  }
  [[nodiscard]] const ConstraintBudgets& budgets() const noexcept {
    return budgets_;
  }

 private:
  void rebuild_constraints();

  const BenchmarkProblem& problem_;
  Objective& objective_;
  ConstraintBudgets budgets_;
  std::optional<TrainedHardwareModel> power_model_;
  std::optional<TrainedHardwareModel> memory_model_;
  std::optional<HardwareConstraints> constraints_;
};

}  // namespace hp::core
