#include "core/fault_injection.hpp"

#include <cstring>
#include <string>

#include "obs/trace.hpp"

namespace hp::core {

std::uint64_t hash_configuration(const Configuration& config) noexcept {
  std::uint64_t h = 0x243f6a8885a308d3ULL;  // pi fractional bits
  for (const double v : config) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    h = stats::splitmix64(h ^ bits);
  }
  return h;
}

std::optional<WorkerFault> scheduled_worker_fault(
    const FaultSpec& spec, std::size_t sample_index,
    std::size_t dispatch_attempt) noexcept {
  // Distinct salt keeps the process-level chaos stream independent of the
  // evaluation fault stream even when both use the same spec seed.
  constexpr std::uint64_t kWorkerFaultSalt = 0x5bf0a8b145769265ULL;
  stats::Rng rng(stats::stream_seed(
      spec.seed ^ kWorkerFaultSalt,
      stats::splitmix64(sample_index) ^ dispatch_attempt));
  const double u = rng.uniform();
  if (u < spec.worker_kill_rate) return WorkerFault::Kill;
  if (u < spec.worker_kill_rate + spec.worker_hang_rate) {
    return WorkerFault::Hang;
  }
  if (u < spec.worker_kill_rate + spec.worker_hang_rate +
              spec.reply_corrupt_rate) {
    return WorkerFault::CorruptReply;
  }
  return std::nullopt;
}

std::optional<FailureKind> FaultInjectingObjective::scheduled_fault(
    const Configuration& config, std::size_t attempt) const {
  stats::Rng rng(stats::stream_seed(
      spec_.seed, hash_configuration(config) ^ stats::splitmix64(attempt)));
  if (!rng.bernoulli(spec_.failure_rate)) return std::nullopt;
  const double weights[] = {spec_.transient_weight, spec_.persistent_weight,
                            spec_.timeout_weight, spec_.diverged_weight};
  constexpr FailureKind kinds[] = {FailureKind::Transient,
                                   FailureKind::Persistent,
                                   FailureKind::Timeout, FailureKind::Diverged};
  double total = 0.0;
  for (const double w : weights) total += w;
  if (total <= 0.0) return FailureKind::Transient;
  double u = rng.uniform() * total;
  for (std::size_t i = 0; i < 4; ++i) {
    u -= weights[i];
    if (u < 0.0) return kinds[i];
  }
  return kinds[3];
}

void FaultInjectingObjective::maybe_fail(const Configuration& config) {
  // Outside a resilient evaluation current_attempt() is 0; treat that as
  // the first attempt so direct objective calls see the same schedule.
  std::size_t attempt = current_attempt();
  if (attempt == 0) attempt = 1;
  const std::optional<FailureKind> kind = scheduled_fault(config, attempt);
  if (!kind) return;
  injected_.fetch_add(1, std::memory_order_relaxed);
  if (obs::tracer().enabled()) {
    obs::tracer().instant(
        "fault.injected",
        {{"kind", failure_kind_name(*kind)}, {"attempt", attempt}});
  }
  throw EvalFailure(*kind, "injected " + to_string(*kind) + " fault",
                    spec_.failed_attempt_cost_s);
}

EvaluationRecord FaultInjectingObjective::evaluate(
    const Configuration& config,
    const EarlyTerminationRule* early_termination) {
  maybe_fail(config);
  return inner_.evaluate(config, early_termination);
}

EvaluationRecord FaultInjectingObjective::evaluate_detached(
    const Configuration& config,
    const EarlyTerminationRule* early_termination) {
  maybe_fail(config);
  return inner_.evaluate_detached(config, early_termination);
}

}  // namespace hp::core
