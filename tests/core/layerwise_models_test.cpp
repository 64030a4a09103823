#include "core/layerwise_models.hpp"

#include <gtest/gtest.h>

#include "core/spaces.hpp"
#include "hw/device.hpp"
#include "stats/metrics.hpp"

namespace hp::core {
namespace {

std::vector<hw::ProfileSample> profiled_with_timings(std::size_t count,
                                                     std::uint64_t seed) {
  const BenchmarkProblem problem = cifar10_problem();
  hw::GpuSimulator simulator(hw::gtx1070(), seed);
  hw::ProfilerOptions options;
  options.collect_layer_timings = true;
  hw::InferenceProfiler profiler(simulator, options);
  stats::Rng rng(seed);
  std::vector<nn::CnnSpec> specs;
  while (specs.size() < count) {
    const auto config = problem.space().sample(rng);
    const auto spec = problem.to_cnn_spec(config);
    if (nn::is_feasible(spec)) specs.push_back(spec);
  }
  return profiler.profile_all(specs);
}

TEST(LayerFeatures, ExtractedFromWorkload) {
  nn::LayerWorkload layer;
  layer.macs = 100;
  layer.activation_count = 50;
  layer.weight_count = 25;
  const LayerFeatures f = layer_features(layer);
  EXPECT_EQ(f.as_vector(), (std::vector<double>{100.0, 50.0, 25.0}));
}

TEST(LayerwiseLatency, RequiresTimings) {
  std::vector<hw::ProfileSample> no_timings(3);
  EXPECT_THROW((void)LayerwiseLatencyModel::train(no_timings),
               std::invalid_argument);
}

TEST(LayerwiseLatency, UntrainedPredictThrows) {
  LayerwiseLatencyModel model;
  EXPECT_FALSE(model.trained());
  nn::CnnSpec spec;
  spec.input = {1, 1, 28, 28};
  spec.conv_stages = {{20, 3, 2}};
  spec.dense_stages = {{200}};
  spec.num_classes = 10;
  EXPECT_THROW((void)model.predict_network_ms(spec), std::logic_error);
}

TEST(LayerwiseLatency, LearnsPerTypeModelsWithLowError) {
  const auto samples = profiled_with_timings(60, 3);
  const auto [model, report] = LayerwiseLatencyModel::train(samples);
  EXPECT_TRUE(model.trained());
  // All four layer types appear in the CIFAR space.
  EXPECT_GE(report.per_type.size(), 3u);
  // Whole-network latency predicted within ~10% (per-layer measurement
  // noise is 3%; the roofline max() is the residual nonlinearity).
  EXPECT_LT(report.total_latency_rmspe, 12.0);
  for (const auto& [type, tr] : report.per_type) {
    EXPECT_GT(tr.layer_count, 0u) << type;
  }
}

TEST(LayerwiseLatency, GeneralizesToHeldOutConfigs) {
  const auto train_samples = profiled_with_timings(60, 3);
  const auto [model, report] = LayerwiseLatencyModel::train(train_samples);
  const auto held_out = profiled_with_timings(20, 99);
  std::vector<double> actual, predicted;
  for (const auto& s : held_out) {
    actual.push_back(s.latency_ms);
    predicted.push_back(model.predict_network_ms(s.spec));
  }
  EXPECT_LT(stats::rmspe(actual, predicted), 15.0);
}

TEST(LayerwiseLatency, PredictionsNonNegative) {
  const auto samples = profiled_with_timings(40, 5);
  const auto [model, report] = LayerwiseLatencyModel::train(samples);
  LayerFeatures tiny;  // all zeros
  for (const auto& [type, fit] : report.per_type) {
    EXPECT_GE(model.predict_layer_ms(type, tiny), 0.0) << type;
  }
}

TEST(LayerwiseLatency, UnknownTypePredictsZero) {
  const auto samples = profiled_with_timings(40, 5);
  const auto [model, report] = LayerwiseLatencyModel::train(samples);
  EXPECT_EQ(model.predict_layer_ms("batchnorm", LayerFeatures{}), 0.0);
}

TEST(EnergyPredictor, RequiresTrainedLatencyModel) {
  HardwareModel power(ModelForm::Linear, linalg::Vector{1.0}, 0.0, 0.0);
  EXPECT_THROW(EnergyPredictor(power, LayerwiseLatencyModel{}),
               std::invalid_argument);
}

TEST(EnergyPredictor, PredictsEnergyWithinTolerance) {
  const auto samples = profiled_with_timings(80, 7);
  auto [latency, report] = LayerwiseLatencyModel::train(samples);
  const auto power = train_power_model(samples);
  const EnergyPredictor energy(power.model, latency);

  const auto held_out = profiled_with_timings(20, 123);
  std::vector<double> actual, predicted;
  for (const auto& s : held_out) {
    actual.push_back(s.energy_j());
    predicted.push_back(energy.predict_energy_j(s.spec));
  }
  EXPECT_LT(stats::rmspe(actual, predicted), 18.0);
}

TEST(EnergyPredictor, EnergyGrowsWithNetworkSize) {
  const auto samples = profiled_with_timings(80, 7);
  auto [latency, report] = LayerwiseLatencyModel::train(samples);
  const auto power = train_power_model(samples);
  const EnergyPredictor energy(power.model, latency);
  const BenchmarkProblem problem = cifar10_problem();
  const Configuration small{20, 2, 2, 20, 2, 2, 20, 2, 2, 200, 0.01, 0.9, 0.001};
  const Configuration large{80, 4, 1, 80, 4, 2, 80, 3, 1, 700, 0.01, 0.9, 0.001};
  EXPECT_GT(energy.predict_energy_j(problem.to_cnn_spec(large)),
            energy.predict_energy_j(problem.to_cnn_spec(small)));
}

}  // namespace
}  // namespace hp::core
