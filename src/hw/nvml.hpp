#pragma once
// NVML-style facade over the GPU simulator. The function names, unit
// conventions (milliwatts, bytes) and error-code style deliberately mirror
// the NVIDIA Management Library so code written against this facade reads
// like real NVML client code — the paper's profiling scripts query power
// through exactly this API on the GTX 1070, and fail the memory query on
// Tegra (NVML_ERROR_NOT_SUPPORTED).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "hw/gpu_simulator.hpp"

namespace hp::hw::nvml {

/// NVML-style status codes (subset).
enum class Return {
  Success = 0,
  ErrorUninitialized,
  ErrorInvalidArgument,
  ErrorNotSupported,
  ErrorNotFound,
  /// A sensor read failed (driver hiccup / injected fault) — real NVML's
  /// NVML_ERROR_UNKNOWN. Transient: the caller may retry, unlike
  /// ErrorNotSupported which is a permanent platform property.
  ErrorUnknown,
};

/// Human-readable error string, like nvmlErrorString().
[[nodiscard]] std::string error_string(Return r);

/// Memory counters in bytes, mirroring nvmlMemory_t.
struct Memory {
  std::uint64_t total = 0;
  std::uint64_t used = 0;
  std::uint64_t free = 0;
};

/// Library session bound to a set of simulated devices. Mirrors
/// nvmlInit/nvmlShutdown pairing; device handles are indices.
class Session {
 public:
  Session() = default;

  /// Registers a simulated device; returns its handle index.
  std::size_t add_device(GpuSimulator* simulator);

  /// nvmlInit_v2.
  Return init();
  /// nvmlShutdown.
  Return shutdown();

  /// nvmlDeviceGetPowerUsage — power in *milliwatts*, as in real NVML.
  /// ErrorUnknown when the sensor read fails (injected fault).
  Return device_get_power_usage(std::size_t handle, unsigned* milliwatts);

  /// nvmlDeviceGetMemoryInfo — bytes. ErrorNotSupported on Tegra-class
  /// platforms without a memory counter (permanent); ErrorUnknown when the
  /// counter exists but this read failed (transient, retryable) — the two
  /// are distinct conditions, not one sentinel.
  Return device_get_memory_info(std::size_t handle, Memory* memory) const;

 private:
  [[nodiscard]] Return check_handle(std::size_t handle) const;

  std::vector<GpuSimulator*> devices_;
  bool initialized_ = false;
};

}  // namespace hp::hw::nvml
