#pragma once
// Stateful GPU simulator: a device that can "load" a network, run inference
// bursts, and expose noisy power/memory sensors. The NVML facade
// (hw/nvml.hpp) reads from this class, so client code interacts with the
// simulated platform exactly the way HyperPower's wrapper scripts interact
// with a real GPU through NVML.

#include <cstdint>
#include <optional>

#include "hw/cost_model.hpp"
#include "hw/sensor.hpp"
#include "stats/rng.hpp"

namespace hp::hw {

/// Memory counters, mirroring nvmlMemory_t (MB units for convenience).
struct MemoryInfo {
  double used_mb = 0.0;
  double total_mb = 0.0;
};

/// Simulated GPU with power/memory sensors.
class GpuSimulator {
 public:
  /// @param seed seeds the per-reading sensor noise stream.
  explicit GpuSimulator(DeviceSpec device, std::uint64_t seed = 7,
                        CostModelOptions cost_options = {});

  /// Loads @p spec onto the device (allocates memory, readies kernels).
  /// Throws std::invalid_argument for infeasible specs and
  /// std::runtime_error if the model does not fit in device memory.
  void load_model(const nn::CnnSpec& spec);

  /// Unloads the current model; the device returns to idle.
  void unload_model();

  [[nodiscard]] bool model_loaded() const noexcept { return cost_.has_value(); }

  /// Marks the device as running back-to-back inference (true) or idle
  /// (false). Power readings reflect this state.
  void set_inference_active(bool active);

  /// One noisy instantaneous power reading, in watts. Per-reading
  /// multiplicative Gaussian noise models sensor quantization/ripple.
  /// Throws SensorError on an injected fault (see set_sensor_faults).
  [[nodiscard]] double read_power_w();

  /// Memory counters; std::nullopt when the platform exposes none
  /// (Tegra TX1, Jetson Nano — paper footnote 1). Ground-truth access:
  /// never subject to injected faults — use read_memory() for the
  /// fault-aware sensor path.
  [[nodiscard]] std::optional<MemoryInfo> memory_info() const;

  /// How a memory-counter query ended. Distinguishes "the platform has no
  /// counter" (Tegra) from "the counter exists but the read failed" — two
  /// conditions memory_info() used to conflate into one nullopt sentinel.
  enum class MemoryQueryStatus {
    Ok,
    NotSupported,  // platform exposes no counter (permanent)
    ReadError,     // counter exists, this read failed (transient)
  };
  struct MemoryReading {
    MemoryQueryStatus status = MemoryQueryStatus::Ok;
    MemoryInfo info;  ///< valid only when status == Ok
  };
  /// Fault-aware memory query (the sensor path the NVML facade reads).
  /// Non-const: a query consumes one draw of the fault stream when
  /// memory faults are armed.
  [[nodiscard]] MemoryReading read_memory();

  /// Arms the deterministic injected-fault schedule (hw/sensor.hpp).
  /// Fault draws come from their own stream seeded by spec.seed, so
  /// arming faults does not perturb the values of successful readings'
  /// noise stream.
  void set_sensor_faults(SensorFaultSpec spec);

  /// Latency of one inference batch under the current model, ms.
  /// Throws std::logic_error if no model is loaded.
  [[nodiscard]] double inference_latency_ms() const;

  /// nvprof-style per-layer timing of the loaded model, each layer's
  /// latency perturbed by multiplicative Gaussian noise of relative sd
  /// @p noise_sd. Throws std::logic_error if no model is loaded.
  [[nodiscard]] std::vector<LayerCost> profile_layers(double noise_sd);

  /// Ground-truth cost of the loaded model (test/diagnostic access).
  [[nodiscard]] const InferenceCost& loaded_cost() const;

  [[nodiscard]] const DeviceSpec& device() const noexcept {
    return cost_model_.device();
  }
  [[nodiscard]] const CostModel& cost_model() const noexcept {
    return cost_model_;
  }

 private:
  /// True when the armed fault schedule fails this read (consumes a draw).
  [[nodiscard]] bool fault_fires();

  CostModel cost_model_;
  stats::Rng rng_;
  std::optional<InferenceCost> cost_;
  bool inference_active_ = false;
  SensorFaultSpec sensor_faults_{};
  stats::Rng fault_rng_{99};
};

}  // namespace hp::hw
