#include "testbed/testbed_objective.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "obs/obs.hpp"

namespace hp::testbed {

namespace {

/// Objective-side instruments. Counters are atomic, so bumping them from
/// evaluate_detached() on pool workers is safe and leaves results untouched.
struct TestbedMetrics {
  obs::Counter& evaluations;
  obs::Counter& simulated_epochs;
  obs::Counter& divergence_detections;
  obs::Counter& infeasible_architectures;
  obs::Counter& sensor_fallbacks;

  static TestbedMetrics& get() {
    obs::MetricsRegistry& m = obs::metrics();
    static TestbedMetrics instance{
        m.counter("testbed.evaluations"),
        m.counter("testbed.simulated_epochs"),
        m.counter("testbed.divergence_detections"),
        m.counter("testbed.infeasible_architectures"),
        m.counter("testbed.sensor_fallbacks"),
    };
    return instance;
  }
};

/// Salts the fault stream so it never collides with the measurement-noise
/// stream, which is keyed off the same spec hash.
constexpr std::uint64_t kFaultSalt = 0x7f4a7c159e3779b9ULL;
/// Cap on a candidate's workload relative to the reference (see
/// TestbedOptions::workload_time_floor).
constexpr double kWorkloadTimeCap = 4.0;
/// Virtual cost of a failed network generation, seconds.
constexpr double kInfeasibleArchTimeS = 5.0;
/// Random configurations sampled to estimate the reference (median)
/// workload.
constexpr std::size_t kReferenceSamples = 200;

/// Read-side tally of one finished evaluation.
void observe_evaluation(const core::EvaluationRecord& record,
                        std::size_t epochs_walked) {
  if (obs::metrics().enabled()) {
    TestbedMetrics& m = TestbedMetrics::get();
    m.evaluations.add(1);
    m.simulated_epochs.add(epochs_walked);
    if (record.status == core::EvaluationStatus::InfeasibleArchitecture) {
      m.infeasible_architectures.add(1);
    }
    if (record.diverged &&
        record.status == core::EvaluationStatus::EarlyTerminated) {
      m.divergence_detections.add(1);
    }
  }
  if (obs::logger().enabled(obs::LogLevel::kTrace)) {
    obs::logger().trace(
        "testbed.evaluate",
        {{"status", obs::JsonValue(core::to_string(record.status))},
         {"error", obs::JsonValue(record.test_error)},
         {"epochs", obs::JsonValue(epochs_walked)},
         {"diverged", obs::JsonValue(record.diverged)},
         {"cost_s", obs::JsonValue(record.cost_s)}});
  }
}

}  // namespace

TestbedOptions calibrated_options(const std::string& problem_name,
                                  const hw::DeviceSpec& device) {
  TestbedOptions opt;
  const bool embedded = !device.supports_memory_query;  // Tegra-class
  if (problem_name == "mnist" || problem_name == "tiny_mnist") {
    opt.base_training_time_s = embedded ? 360.0 : 320.0;
  } else {
    opt.base_training_time_s = embedded ? 850.0 : 750.0;
  }
  opt.workload_time_floor = 0.3;
  opt.measurement_time_s = embedded ? 25.0 : 18.0;
  return opt;
}

TestbedObjective::TestbedObjective(const core::BenchmarkProblem& problem,
                                   LandscapeParams landscape_params,
                                   hw::DeviceSpec device,
                                   TestbedOptions options)
    : problem_(problem),
      landscape_(problem, landscape_params),
      cost_model_(std::move(device)),
      options_(options) {
  if (options_.base_training_time_s <= 0.0) {
    throw std::invalid_argument(
        "TestbedObjective: base training time must be > 0");
  }
  // Estimate the reference (median) workload by deterministic sampling.
  stats::Rng rng(options_.run_seed ^ 0xabcdef1234567890ULL);
  std::vector<double> macs;
  macs.reserve(kReferenceSamples);
  for (std::size_t i = 0; i < kReferenceSamples; ++i) {
    const core::Configuration config = problem_.space().sample(rng);
    const nn::CnnSpec spec = problem_.to_cnn_spec(config);
    if (!nn::is_feasible(spec)) continue;
    macs.push_back(static_cast<double>(nn::compute_workload(spec).total_macs));
  }
  if (macs.empty()) {
    throw std::invalid_argument(
        "TestbedObjective: no feasible configuration found in space");
  }
  std::nth_element(macs.begin(), macs.begin() + macs.size() / 2, macs.end());
  reference_macs_ = std::max(1.0, macs[macs.size() / 2]);
}

double TestbedObjective::training_time_s(const nn::CnnSpec& spec) const {
  const nn::WorkloadSummary workload = nn::compute_workload(spec);
  const double rel = std::min(
      static_cast<double>(workload.total_macs) / reference_macs_,
      kWorkloadTimeCap);
  const double factor =
      options_.workload_time_floor + (1.0 - options_.workload_time_floor) * rel;
  return options_.base_training_time_s * factor;
}

TestbedObjective::Measurement TestbedObjective::measure(
    const core::Configuration& config) {
  return measure(problem_.to_cnn_spec(config));
}

TestbedObjective::Measurement TestbedObjective::measure(
    const nn::CnnSpec& spec) {
  const hw::InferenceCost cost = cost_model_.evaluate(spec);
  if (cost.memory_mb > cost_model_.device().dram_gb * 1024.0) {
    throw std::runtime_error(
        "TestbedObjective: model does not fit in device memory");
  }
  const std::uint64_t network = hw::CostModel::hash_spec(spec);
  const hw::SensorFaultSpec& faults = options_.sensor_faults;
  stats::Rng sensor(stats::stream_seed(options_.sensor_seed, network));
  stats::Rng fault(stats::stream_seed(faults.seed ^ kFaultSalt, network));
  // A failed read consumes no noise draw: the fault check comes first.
  const hw::PowerBurst burst = hw::read_power_burst(
      [&] {
        if (faults.enabled() && fault.bernoulli(faults.failure_rate)) {
          throw hw::SensorError(
              "TestbedObjective: simulated power-sensor read failure");
        }
        const double noisy =
            cost.average_power_w *
            (1.0 + sensor.gaussian(0.0, hw::kPowerReadingNoiseSd));
        return noisy > 0.0 ? noisy : 0.0;
      },
      hw::kPowerReadings, options_.sensor_fallback_after);
  std::optional<double> memory_mb;
  bool memory_read_failed = false;
  if (cost_model_.device().supports_memory_query) {
    if (faults.enabled() && faults.fail_memory &&
        fault.bernoulli(faults.failure_rate)) {
      memory_read_failed = true;
    } else {
      memory_mb = cost.memory_mb;
    }
  }  // else Tegra-class: the memory constraint is simply absent.
  return resolve_measurement(spec, burst, memory_mb, memory_read_failed);
}

TestbedObjective::Measurement TestbedObjective::resolve_measurement(
    const nn::CnnSpec& spec, const hw::PowerBurst& burst,
    std::optional<double> memory_mb, bool memory_read_failed) {
  Measurement m;
  std::vector<double> z;  // structural vector, built only if a fallback fires
  const auto structural = [&]() -> const std::vector<double>& {
    if (z.empty()) z = spec.structural_vector();
    return z;
  };
  if (!burst.degraded && burst.mean_w) {
    m.power_w = *burst.mean_w;
  } else {
    if (fallback_power_ == nullptr) {
      throw hw::SensorError(
          "TestbedObjective: power sensor dark and no fallback model "
          "installed");
    }
    m.power_w = fallback_power_->predict(structural());
    m.measured = false;
  }
  if (memory_read_failed) {
    if (fallback_memory_ == nullptr) {
      throw hw::SensorError(
          "TestbedObjective: memory counter dark and no fallback model "
          "installed");
    }
    m.memory_mb = fallback_memory_->predict(structural());
    m.measured = false;
  } else {
    m.memory_mb = memory_mb;
  }
  if (!m.measured) {
    if (obs::metrics().enabled()) TestbedMetrics::get().sensor_fallbacks.add(1);
    obs::logger().warn(
        "hw.sensor_fallback",
        {{"power_degraded", obs::JsonValue(burst.degraded)},
         {"memory_degraded", obs::JsonValue(memory_read_failed)},
         {"failed_reads", obs::JsonValue(burst.failures)}});
  }
  return m;
}

core::EvaluationRecord TestbedObjective::evaluate(
    const core::Configuration& config,
    const core::EarlyTerminationRule* early_termination) {
  core::EvaluationRecord record = evaluate_detached(config, early_termination);
  clock_.advance(record.cost_s);
  return record;
}

core::EvaluationRecord TestbedObjective::evaluate_detached(
    const core::Configuration& config,
    const core::EarlyTerminationRule* early_termination) {
  core::EvaluationRecord record;
  record.config = config;

  const nn::CnnSpec spec = problem_.to_cnn_spec(config);
  if (!nn::is_feasible(spec)) {
    record.status = core::EvaluationStatus::InfeasibleArchitecture;
    record.test_error = 1.0;
    record.cost_s = kInfeasibleArchTimeS;
    observe_evaluation(record, 0);
    return record;
  }

  const double full_time = training_time_s(spec);
  const std::size_t total_epochs = landscape_.params().total_epochs;
  const bool diverges = landscape_.diverges(config, options_.run_seed);

  if (early_termination != nullptr) {
    // Walk the learning curve epoch by epoch, applying the rule exactly as
    // the real trainer's epoch callback would.
    for (std::size_t epoch = 0; epoch < total_epochs; ++epoch) {
      const double err =
          landscape_.error_at_epoch(config, epoch, options_.run_seed);
      if (early_termination->should_terminate(epoch + 1, err)) {
        record.status = core::EvaluationStatus::EarlyTerminated;
        record.test_error = err;
        record.diverged = diverges;
        record.cost_s = full_time * static_cast<double>(epoch + 1) /
                        static_cast<double>(total_epochs);
        observe_evaluation(record, epoch + 1);
        return record;
      }
    }
  }

  // Trained to completion (converging candidate, or exhaustive mode that
  // pays the full cost even for diverging ones).
  record.status = core::EvaluationStatus::Completed;
  record.diverged = diverges;
  record.test_error = landscape_.final_error(config, options_.run_seed);
  record.cost_s = full_time;

  // Post-training inference profiling on the target platform.
  const Measurement m = measure(spec);
  record.measured_power_w = m.power_w;
  record.measured_memory_mb = m.memory_mb;
  record.measured = m.measured;
  record.cost_s += options_.measurement_time_s;
  observe_evaluation(record, total_epochs);
  return record;
}

}  // namespace hp::testbed
