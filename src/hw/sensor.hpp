#pragma once
// Sensor fault model and graceful-degradation helpers for the hardware
// layer. Real NVML-style power/memory counters fail intermittently (driver
// hiccups, contended telemetry buses); HyperPower's wrapper scripts retry
// and, when a platform stays dark, fall back to the NeuralPower-style
// predictive models instead of crashing the sweep. This header provides
//   - SensorError: the typed exception every failed sensor read raises
//     (classified Transient by the resilience layer);
//   - SensorFaultSpec: deterministic injected-failure schedule for the
//     simulator, seeded via stats::stream_seed like every other noise
//     source so faulty runs replay bit-identically;
//   - read_power_burst: the "average a burst of reads, tolerate
//     stragglers, report degradation after N consecutive failures" routine
//     the testbed objective and the offline profiler (which never degrades:
//     fallback_after = 0) both measure with;
//   - kPowerReadings and kPowerReadingNoiseSd: the burst length of every
//     power measurement and the noise of each reading.

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>

#include "stats/rng.hpp"

namespace hp::hw {

/// A live sensor read failed (power or memory counter). Always transient
/// from the retry policy's point of view: the device is still there, the
/// telemetry path glitched.
class SensorError : public std::runtime_error {
 public:
  explicit SensorError(const std::string& what) : std::runtime_error(what) {}
};

/// Deterministic injected-failure schedule for simulated sensors. Each
/// read consumes one Bernoulli draw from a dedicated fault stream (separate
/// from the measurement-noise stream, so enabling faults does not perturb
/// the values of successful reads).
struct SensorFaultSpec {
  /// Probability that any single sensor read throws SensorError.
  double failure_rate = 0.0;
  /// Seeds the fault stream (independent of the noise seed).
  std::uint64_t seed = 99;
  /// Also inject failures into memory-counter queries.
  bool fail_memory = false;

  [[nodiscard]] bool enabled() const noexcept { return failure_rate > 0.0; }
};

/// Result of a burst of power readings with fault tolerance.
struct PowerBurst {
  /// Mean of the successful reads; absent when the sensor was declared
  /// dead (degraded) or every read failed.
  std::optional<double> mean_w;
  std::size_t reads_ok = 0;
  std::size_t failures = 0;
  /// True when the consecutive-failure threshold tripped: the caller
  /// should fall back to the predictive model and mark the record
  /// measured=false.
  bool degraded = false;
};

/// Instantaneous power readings averaged per measurement, by the testbed
/// objective, the real-training objective and the profiler alike (real
/// NVML polls at ~10-100 Hz during a sustained inference loop).
inline constexpr std::size_t kPowerReadings = 25;

/// Fractional sd of the per-reading power sensor noise, in the simulator
/// and the testbed objective alike.
inline constexpr double kPowerReadingNoiseSd = 0.012;

/// Averages up to @p readings calls of @p read, skipping reads that throw
/// SensorError. Stops early and reports degraded=true after
/// @p fallback_after consecutive failures (0 = never give up; failed reads
/// are just skipped). Non-SensorError exceptions propagate.
[[nodiscard]] PowerBurst read_power_burst(const std::function<double()>& read,
                                          std::size_t readings,
                                          std::size_t fallback_after);

}  // namespace hp::hw
