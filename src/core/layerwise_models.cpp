#include "core/layerwise_models.hpp"

#include <stdexcept>

#include "stats/metrics.hpp"

namespace hp::core {

LayerFeatures layer_features(const nn::LayerWorkload& layer) {
  LayerFeatures f;
  f.macs = static_cast<double>(layer.macs);
  f.output_activations = static_cast<double>(layer.activation_count);
  f.weights = static_cast<double>(layer.weight_count);
  return f;
}

namespace {

/// Training rows grouped by layer type.
struct TypeData {
  std::vector<std::vector<double>> features;
  std::vector<double> latency_ms;
};

constexpr std::size_t kFeatureCount = 3;

}  // namespace

std::pair<LayerwiseLatencyModel, LayerwiseLatencyModel::Report>
LayerwiseLatencyModel::train(const std::vector<hw::ProfileSample>& samples,
                             double ridge) {
  std::map<std::string, TypeData> data;
  std::size_t usable_samples = 0;
  for (const hw::ProfileSample& sample : samples) {
    if (sample.layer_timings.empty()) continue;
    const nn::WorkloadSummary workload = nn::compute_workload(sample.spec);
    if (workload.layers.size() != sample.layer_timings.size()) {
      throw std::invalid_argument(
          "LayerwiseLatencyModel: timing/workload layer count mismatch");
    }
    ++usable_samples;
    for (std::size_t i = 0; i < workload.layers.size(); ++i) {
      const nn::LayerWorkload& layer = workload.layers[i];
      if (layer.name != sample.layer_timings[i].name) {
        throw std::invalid_argument(
            "LayerwiseLatencyModel: timing/workload layer order mismatch");
      }
      TypeData& td = data[layer.name];
      td.features.push_back(layer_features(layer).as_vector());
      td.latency_ms.push_back(sample.layer_timings[i].latency_ms);
    }
  }
  if (usable_samples == 0) {
    throw std::invalid_argument(
        "LayerwiseLatencyModel: no samples carry layer timings (enable "
        "ProfilerOptions::collect_layer_timings)");
  }

  LayerwiseLatencyModel model;
  Report report;
  for (auto& [type, td] : data) {
    linalg::Matrix a(td.features.size(), kFeatureCount);
    linalg::Vector b(td.latency_ms.size());
    for (std::size_t i = 0; i < td.features.size(); ++i) {
      for (std::size_t j = 0; j < kFeatureCount; ++j) {
        a(i, j) = td.features[i][j];
      }
      b[i] = td.latency_ms[i];
    }
    linalg::LeastSquaresOptions opt;
    opt.ridge = ridge;
    opt.fit_intercept = true;   // absorbs the kernel-launch overhead
    opt.nonnegative = true;     // physical latency contributions
    const linalg::LeastSquaresFit fit = linalg::solve_least_squares(a, b, opt);

    std::vector<double> predicted(td.latency_ms.size());
    for (std::size_t i = 0; i < td.features.size(); ++i) {
      predicted[i] = fit.predict(linalg::Vector(td.features[i]));
    }
    TypeReport tr;
    tr.layer_count = td.latency_ms.size();
    tr.rmspe = stats::rmspe(td.latency_ms, predicted);
    report.per_type[type] = tr;
    model.fits_[type] = fit;
  }

  // Whole-network report over the training configurations.
  std::vector<double> actual_total, predicted_total;
  for (const hw::ProfileSample& sample : samples) {
    if (sample.layer_timings.empty()) continue;
    double actual = 0.0;
    for (const hw::LayerCost& layer : sample.layer_timings) {
      actual += layer.latency_ms;
    }
    actual_total.push_back(actual);
    predicted_total.push_back(model.predict_network_ms(sample.spec));
  }
  report.total_latency_rmspe = stats::rmspe(actual_total, predicted_total);
  return {std::move(model), std::move(report)};
}

double LayerwiseLatencyModel::predict_layer_ms(
    const std::string& type, const LayerFeatures& features) const {
  const auto it = fits_.find(type);
  if (it == fits_.end()) return 0.0;
  const double prediction =
      it->second.predict(linalg::Vector(features.as_vector()));
  return prediction > 0.0 ? prediction : 0.0;
}

double LayerwiseLatencyModel::predict_network_ms(
    const nn::CnnSpec& spec) const {
  if (!trained()) {
    throw std::logic_error("LayerwiseLatencyModel: predict before train");
  }
  const nn::WorkloadSummary workload = nn::compute_workload(spec);
  double total = 0.0;
  for (const nn::LayerWorkload& layer : workload.layers) {
    total += predict_layer_ms(layer.name, layer_features(layer));
  }
  return total;
}

EnergyPredictor::EnergyPredictor(HardwareModel power_model,
                                 LayerwiseLatencyModel latency)
    : power_model_(std::move(power_model)), latency_(std::move(latency)) {
  if (!latency_.trained()) {
    throw std::invalid_argument("EnergyPredictor: untrained latency model");
  }
}

double EnergyPredictor::predict_energy_j(const nn::CnnSpec& spec) const {
  const double power_w = power_model_.predict(spec.structural_vector());
  const double latency_ms = latency_.predict_network_ms(spec);
  return power_w * latency_ms / 1e3;
}

}  // namespace hp::core
