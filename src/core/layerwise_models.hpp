#pragma once
// NeuralPower-style layer-wise predictive models (the paper's reference
// [10]: "more elaborate (layer-wise) predictive models for runtime and
// energy, which can be incorporated into HyperPower"). One linear
// regressor per layer *type* maps layer workload features (MACs, output
// activations, weights) to that layer's latency; network runtime is the
// sum over layers, and energy combines the runtime model with the paper's
// power model (Eq. 1). Trained on nvprof-style per-layer timings collected
// by the profiler.

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/hw_models.hpp"
#include "hw/profiler.hpp"
#include "linalg/least_squares.hpp"
#include "nn/network.hpp"

namespace hp::core {

/// Workload features of one layer, the regression inputs.
struct LayerFeatures {
  double macs = 0.0;
  double output_activations = 0.0;
  double weights = 0.0;

  [[nodiscard]] std::vector<double> as_vector() const {
    return {macs, output_activations, weights};
  }
};

/// Extracts regression features from a workload entry.
[[nodiscard]] LayerFeatures layer_features(const nn::LayerWorkload& layer);

/// Per-layer-type latency model: latency_ms = w . features + bias.
class LayerwiseLatencyModel {
 public:
  /// Per-type fit quality.
  struct TypeReport {
    std::size_t layer_count = 0;
    double rmspe = 0.0;  ///< per-layer latency RMSPE, percent
  };

  /// Quality report of a trained model.
  struct Report {
    std::map<std::string, TypeReport> per_type;
    /// Whole-network latency RMSPE over the training configurations.
    double total_latency_rmspe = 0.0;
  };

  LayerwiseLatencyModel() = default;

  /// Trains from profiled samples that carry layer timings (collected with
  /// ProfilerOptions::collect_layer_timings). Throws std::invalid_argument
  /// if no sample has timings or if timings do not match the workloads.
  [[nodiscard]] static std::pair<LayerwiseLatencyModel, Report> train(
      const std::vector<hw::ProfileSample>& samples, double ridge = 1e-6);

  /// Predicted latency of one layer, ms. Unknown layer types predict 0
  /// (parameter-free glue layers contribute launch overhead only, which
  /// the per-type bias of known types absorbs).
  [[nodiscard]] double predict_layer_ms(const std::string& type,
                                        const LayerFeatures& features) const;

  /// Predicted whole-network inference latency for @p spec, ms.
  /// Throws std::invalid_argument for infeasible specs and
  /// std::logic_error if the model is untrained.
  [[nodiscard]] double predict_network_ms(const nn::CnnSpec& spec) const;

  [[nodiscard]] bool trained() const noexcept { return !fits_.empty(); }

 private:
  std::map<std::string, linalg::LeastSquaresFit> fits_;
};

/// Energy predictor: combines the paper's power model P(z) with the
/// layer-wise runtime model; E = P(z) * T(spec).
class EnergyPredictor {
 public:
  EnergyPredictor(HardwareModel power_model, LayerwiseLatencyModel latency);

  /// Predicted energy of one inference batch, joules.
  [[nodiscard]] double predict_energy_j(const nn::CnnSpec& spec) const;

  [[nodiscard]] const HardwareModel& power_model() const noexcept {
    return power_model_;
  }
  [[nodiscard]] const LayerwiseLatencyModel& latency_model() const noexcept {
    return latency_;
  }

 private:
  HardwareModel power_model_;
  LayerwiseLatencyModel latency_;
};

}  // namespace hp::core
