#pragma once
// The paper-scale objective backend: analytic error landscape + modelled
// training time + simulated hardware measurement, all charged to a virtual
// clock. A "5-hour" CIFAR-10 run executes in milliseconds of real time
// while preserving the paper's cost structure:
//  - full training costs minutes of (virtual) GPU time, scaled by the
//    candidate's computational workload;
//  - early-terminated candidates pay only the observed epochs;
//  - model-filtered candidates never reach this objective at all (the
//    Study records them without calling evaluate);
//  - every trained candidate is then measured for power/memory on the
//    device's cost model, with sensor noise and injected sensor faults
//    (measurement also costs time).

#include <cstdint>
#include <memory>

#include "core/hw_models.hpp"
#include "core/objective.hpp"
#include "core/spaces.hpp"
#include "hw/cost_model.hpp"
#include "hw/sensor.hpp"
#include "testbed/landscape.hpp"

namespace hp::testbed {

/// Cost/measurement options for the testbed objective.
struct TestbedOptions {
  /// Full-training wall time of a workload-median candidate, seconds.
  double base_training_time_s = 500.0;
  /// Training time = base * (floor + (1-floor) * min(workload/reference,
  /// 4)). The cap of 4 models practitioners bounding epochs/iterations for
  /// outsized networks (and keeps the cost tail realistic: the paper's
  /// per-sample times vary by minutes, not hours).
  double workload_time_floor = 0.15;
  /// Post-training inference profiling (power/memory measurement) cost.
  double measurement_time_s = 20.0;
  /// Seed for training noise; vary across repeat runs of an experiment.
  std::uint64_t run_seed = 1;
  /// Seed for the measurement sensor noise streams.
  std::uint64_t sensor_seed = 77;
  /// Injected sensor-fault schedule (hw/sensor.hpp); disabled by default.
  hw::SensorFaultSpec sensor_faults{};
  /// Consecutive failed power readings after which a measurement gives up
  /// on the sensor and falls back to the predictive models (records get
  /// measured = false). 0 = never fall back mid-burst.
  std::size_t sensor_fallback_after = 3;
};

/// Per-(device, dataset) calibrated options reproducing the paper's
/// wall-clock regime (Table 3: ~9 min/sample MNIST, ~21 min/sample
/// CIFAR-10 for exhaustive random search).
[[nodiscard]] TestbedOptions calibrated_options(const std::string& problem_name,
                                                const hw::DeviceSpec& device);

/// Analytic objective over a benchmark problem on a simulated device.
class TestbedObjective final : public core::Objective {
 public:
  TestbedObjective(const core::BenchmarkProblem& problem,
                   LandscapeParams landscape_params, hw::DeviceSpec device,
                   TestbedOptions options = {});

  [[nodiscard]] core::EvaluationRecord evaluate(
      const core::Configuration& config,
      const core::EarlyTerminationRule* early_termination) override;

  /// The landscape, the cost model and the measurement (measure()) are
  /// pure functions of the configuration, so an evaluation is too;
  /// evaluate() is evaluate_detached() plus the clock charge.
  [[nodiscard]] bool supports_concurrent_evaluation() const noexcept override {
    return true;
  }
  [[nodiscard]] core::EvaluationRecord evaluate_detached(
      const core::Configuration& config,
      const core::EarlyTerminationRule* early_termination) override;

  [[nodiscard]] core::Clock& clock() override { return clock_; }

  /// Modelled full-training duration of the network @p spec, seconds.
  [[nodiscard]] double training_time_s(const nn::CnnSpec& spec) const;

  /// Measures inference power (mean of hw::kPowerReadings noisy readings)
  /// and memory for a configuration without training it — what an
  /// evaluation measures, and what the Figure 1/3 benches plot. The sensor
  /// noise and the injected faults draw from streams seeded by
  /// (sensor_seed, network) and (sensor_faults.seed, network), so a
  /// measurement is independent of which networks were measured before
  /// (any thread count, batch order or journal replay), and an enabled
  /// fault schedule never perturbs the noise of successful reads.
  struct Measurement {
    double power_w = 0.0;
    std::optional<double> memory_mb;
    /// False when any metric came from the fallback models, not sensors.
    bool measured = true;
  };
  /// Throws hw::SensorError when the sensors are dark and no fallback
  /// model is installed (set_fallback_models).
  [[nodiscard]] Measurement measure(const core::Configuration& config);

  /// Installs the NeuralPower-style predictive models used when live
  /// sensor reads fail repeatedly (graceful degradation): records then
  /// carry predicted power/memory with measured = false instead of
  /// crashing the run. Non-owning; pass nullptr to disable either.
  void set_fallback_models(const core::HardwareModel* power,
                           const core::HardwareModel* memory) {
    fallback_power_ = power;
    fallback_memory_ = memory;
  }

  [[nodiscard]] const ErrorLandscape& landscape() const noexcept {
    return landscape_;
  }

 private:
  [[nodiscard]] Measurement measure(const nn::CnnSpec& spec);
  /// Resolves a finished power burst + memory reading into a Measurement,
  /// falling back to the predictive models (or throwing hw::SensorError)
  /// when degraded.
  [[nodiscard]] Measurement resolve_measurement(
      const nn::CnnSpec& spec, const hw::PowerBurst& burst,
      std::optional<double> memory_mb, bool memory_read_failed);

  const core::BenchmarkProblem& problem_;
  ErrorLandscape landscape_;
  hw::CostModel cost_model_;
  TestbedOptions options_;
  core::Clock clock_;
  double reference_macs_ = 1.0;
  const core::HardwareModel* fallback_power_ = nullptr;
  const core::HardwareModel* fallback_memory_ = nullptr;
};

}  // namespace hp::testbed
