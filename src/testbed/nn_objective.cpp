#include "testbed/nn_objective.hpp"

#include <chrono>
#include <stdexcept>

namespace hp::testbed {

namespace {
nn::DataSplit make_data(SyntheticDataset dataset,
                        const nn::SyntheticDataOptions& options) {
  switch (dataset) {
    case SyntheticDataset::Mnist:
      return nn::make_synthetic_mnist(options);
    case SyntheticDataset::Cifar:
      return nn::make_synthetic_cifar(options);
  }
  throw std::invalid_argument("NnTrainingObjective: unknown dataset");
}
}  // namespace

NnTrainingObjective::NnTrainingObjective(const core::BenchmarkProblem& problem,
                                         SyntheticDataset dataset,
                                         hw::DeviceSpec device,
                                         NnObjectiveOptions options)
    : problem_(problem),
      data_(make_data(dataset, options.data)),
      simulator_(std::move(device), options.seed ^ 0x5ca1ab1eULL),
      options_(options) {
  const nn::Shape expected = problem_.input();
  const nn::Shape actual = data_.train.item_shape();
  if (expected.c != actual.c || expected.h != actual.h ||
      expected.w != actual.w) {
    throw std::invalid_argument(
        "NnTrainingObjective: problem input shape does not match dataset");
  }
}

core::EvaluationRecord NnTrainingObjective::evaluate(
    const core::Configuration& config,
    const core::EarlyTerminationRule* early_termination) {
  const auto t0 = std::chrono::steady_clock::now();
  core::EvaluationRecord record;
  record.config = config;
  ++evaluation_counter_;

  const nn::CnnSpec spec = problem_.to_cnn_spec(config);
  if (!nn::is_feasible(spec)) {
    record.status = core::EvaluationStatus::InfeasibleArchitecture;
    record.test_error = 1.0;
    record.cost_s = 0.0;
    return record;
  }

  const auto settings = problem_.training_settings(config);
  nn::TrainingConfig train_config;
  train_config.learning_rate = settings.learning_rate;
  train_config.momentum = settings.momentum;
  train_config.weight_decay = settings.weight_decay;
  train_config.batch_size = options_.batch_size;
  train_config.epochs = options_.epochs;
  train_config.seed = options_.seed + evaluation_counter_;

  nn::Network net = nn::build_network(spec);
  stats::Rng init_rng(train_config.seed ^ 0xfeedface12345678ULL);
  net.initialize(init_rng);

  bool terminated_by_rule = false;
  nn::EpochCallback callback;
  if (early_termination != nullptr) {
    callback = [&](const nn::EpochReport& report) {
      if (early_termination->should_terminate(report.epoch + 1,
                                              report.test_error)) {
        terminated_by_rule = true;
        return false;
      }
      return true;
    };
  }

  nn::SgdTrainer trainer(train_config);
  const nn::TrainingResult result =
      trainer.train(net, data_.train, data_.test, callback);

  record.diverged = result.diverged;
  record.test_error = result.final_test_error;
  if (terminated_by_rule || (early_termination != nullptr && result.diverged)) {
    record.status = core::EvaluationStatus::EarlyTerminated;
  } else {
    record.status = core::EvaluationStatus::Completed;
    // Measure inference power/memory on the target platform.
    simulator_.load_model(spec);
    simulator_.set_inference_active(true);
    double power_sum = 0.0;
    for (std::size_t i = 0; i < hw::kPowerReadings; ++i) {
      power_sum += simulator_.read_power_w();
    }
    record.measured_power_w =
        power_sum / static_cast<double>(hw::kPowerReadings);
    if (const auto info = simulator_.memory_info()) {
      record.measured_memory_mb = info->used_mb;
    }
    simulator_.set_inference_active(false);
    simulator_.unload_model();
  }

  const auto t1 = std::chrono::steady_clock::now();
  record.cost_s = std::chrono::duration<double>(t1 - t0).count();
  clock_.advance(record.cost_s);
  return record;
}

}  // namespace hp::testbed
