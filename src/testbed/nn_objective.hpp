#pragma once
// The real-training objective backend: actually builds the candidate CNN
// with the from-scratch nn substrate, trains it with SGD on a synthetic
// dataset, applies the early-termination rule through the trainer's epoch
// callback, and measures inference power/memory on the simulated GPU. This
// is the full HyperPower code path end-to-end — used with the tiny_*
// problems so each training finishes in well under a second.

#include <cstdint>

#include "core/objective.hpp"
#include "core/spaces.hpp"
#include "hw/gpu_simulator.hpp"
#include "nn/dataset.hpp"
#include "nn/sgd_trainer.hpp"

namespace hp::testbed {

/// Options for the real-training objective.
struct NnObjectiveOptions {
  nn::SyntheticDataOptions data{};   ///< synthetic dataset generation
  std::size_t epochs = 6;
  std::size_t batch_size = 32;
  std::uint64_t seed = 1;            ///< weight init + batching seed
  std::size_t power_readings = 25;
  /// If true the cost of each evaluation (real elapsed seconds) is also
  /// charged to an internal virtual clock so time-budget stopping rules
  /// work identically to the analytic testbed.
  bool charge_virtual_time = true;
};

/// Dataset family the synthetic generator should mimic.
enum class SyntheticDataset { Mnist, Cifar };

/// Objective that trains real (small) CNNs.
class NnTrainingObjective final : public core::Objective {
 public:
  /// @param problem must use the same input shape the dataset generator
  ///        produces (use tiny_mnist_problem / tiny_cifar_problem).
  NnTrainingObjective(const core::BenchmarkProblem& problem,
                      SyntheticDataset dataset, hw::DeviceSpec device,
                      NnObjectiveOptions options = {});

  [[nodiscard]] core::EvaluationRecord evaluate(
      const core::Configuration& config,
      const core::EarlyTerminationRule* early_termination) override;

  [[nodiscard]] core::Clock& clock() override { return clock_; }

  [[nodiscard]] hw::GpuSimulator& simulator() noexcept { return simulator_; }
  [[nodiscard]] const nn::DataSplit& data() const noexcept { return data_; }

 private:
  const core::BenchmarkProblem& problem_;
  nn::DataSplit data_;
  hw::GpuSimulator simulator_;
  NnObjectiveOptions options_;
  core::Clock clock_;
  std::uint64_t evaluation_counter_ = 0;
};

}  // namespace hp::testbed
