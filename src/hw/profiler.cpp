#include "hw/profiler.hpp"

#include <stdexcept>

#include "hw/sensor.hpp"
#include "obs/obs.hpp"

namespace hp::hw {

namespace {

struct HwMetrics {
  obs::Counter& profiled_specs;
  obs::Counter& profile_failures;
  obs::Counter& sensor_read_failures;

  static HwMetrics& get() {
    static HwMetrics m{
        obs::metrics().counter("hw.profiled_specs"),
        obs::metrics().counter("hw.profile_failures"),
        obs::metrics().counter("hw.sensor_read_failures"),
    };
    return m;
  }
};

/// Memory-query retries before the sample degrades to "no memory reading".
constexpr std::size_t kMemoryQueryAttempts = 3;
/// Relative sd of the per-layer timing measurement noise.
constexpr double kLayerTimingNoiseSd = 0.03;

}  // namespace

InferenceProfiler::InferenceProfiler(GpuSimulator& simulator,
                                     ProfilerOptions options)
    : simulator_(simulator), options_(options) {
  handle_ = session_.add_device(&simulator_);
  if (session_.init() != nvml::Return::Success) {
    throw std::runtime_error("InferenceProfiler: NVML init failed");
  }
}

InferenceProfiler::~InferenceProfiler() { (void)session_.shutdown(); }

ProfileSample InferenceProfiler::profile(const nn::CnnSpec& spec) {
  simulator_.load_model(spec);  // throws for infeasible/oversized models
  simulator_.set_inference_active(true);

  // A transient read failure (ErrorUnknown) is skipped and the rest are
  // averaged; the profiler never gives up on the sensor mid-burst
  // (fallback_after = 0). Any other NVML error ends the profile.
  const PowerBurst burst = read_power_burst(
      [this] {
        unsigned milliwatts = 0;
        const nvml::Return r =
            session_.device_get_power_usage(handle_, &milliwatts);
        if (r == nvml::Return::ErrorUnknown) {
          if (obs::metrics().enabled()) {
            HwMetrics::get().sensor_read_failures.add(1);
          }
          throw SensorError("InferenceProfiler: power read failed");
        }
        if (r != nvml::Return::Success) {
          simulator_.unload_model();
          throw std::runtime_error("InferenceProfiler: power query failed: " +
                                   nvml::error_string(r));
        }
        return static_cast<double>(milliwatts) / 1000.0;
      },
      kPowerReadings, /*fallback_after=*/0);
  if (!burst.mean_w) {
    // Every reading of the burst failed: the sensor is dark for this
    // sample. Typed + transient, so callers (resilience layer, retry
    // loops) know a later attempt may succeed.
    simulator_.unload_model();
    throw SensorError("InferenceProfiler: every power reading failed");
  }

  ProfileSample sample;
  sample.spec = spec;
  sample.z = spec.structural_vector();
  sample.power_w = *burst.mean_w;
  sample.latency_ms = simulator_.inference_latency_ms();
  if (options_.collect_layer_timings) {
    sample.layer_timings = simulator_.profile_layers(kLayerTimingNoiseSd);
  }

  nvml::Memory memory;
  nvml::Return r = nvml::Return::ErrorUnknown;
  for (std::size_t attempt = 0;
       attempt < kMemoryQueryAttempts && r == nvml::Return::ErrorUnknown;
       ++attempt) {
    r = session_.device_get_memory_info(handle_, &memory);
  }
  if (r == nvml::Return::Success) {
    sample.memory_mb = static_cast<double>(memory.used) / (1024.0 * 1024.0);
  } else if (r == nvml::Return::ErrorUnknown) {
    // Counter exists but stayed dark through the retries: degrade the
    // sample (memory absent, flagged) instead of failing the profile.
    sample.memory_read_failed = true;
    if (obs::metrics().enabled()) HwMetrics::get().sensor_read_failures.add(1);
    obs::logger().warn("hw.memory_query_degraded",
                       {{"attempts", obs::JsonValue(kMemoryQueryAttempts)}});
  } else if (r != nvml::Return::ErrorNotSupported) {
    simulator_.unload_model();
    throw std::runtime_error("InferenceProfiler: memory query failed: " +
                             nvml::error_string(r));
  }
  // ErrorNotSupported (Tegra) leaves sample.memory_mb empty, matching the
  // paper's decision to skip memory constraints on Tegra.

  simulator_.set_inference_active(false);
  simulator_.unload_model();
  if (obs::metrics().enabled()) HwMetrics::get().profiled_specs.add(1);
  if (obs::logger().enabled(obs::LogLevel::kDebug)) {
    std::vector<obs::LogField> fields{
        {"power_w", obs::JsonValue(sample.power_w)},
        {"latency_ms", obs::JsonValue(sample.latency_ms)},
    };
    if (sample.memory_mb) {
      fields.push_back({"memory_mb", obs::JsonValue(*sample.memory_mb)});
    }
    obs::logger().debug("hw.profile", std::move(fields));
  }
  return sample;
}

std::vector<ProfileSample> InferenceProfiler::profile_all(
    const std::vector<nn::CnnSpec>& specs) {
  std::vector<ProfileSample> samples;
  samples.reserve(specs.size());
  for (const nn::CnnSpec& spec : specs) {
    try {
      samples.push_back(profile(spec));
    } catch (const std::invalid_argument&) {
      // Infeasible architecture (spatial collapse): skip, as the paper's
      // generation scripts skip Caffe definition failures.
      if (obs::metrics().enabled()) HwMetrics::get().profile_failures.add(1);
    } catch (const std::runtime_error&) {
      // Model too large for the device: skip.
      if (obs::metrics().enabled()) HwMetrics::get().profile_failures.add(1);
    }
  }
  return samples;
}

}  // namespace hp::hw
