#pragma once
// Deterministic fault injection for the evaluation pipeline. The decorator
// here is how the tests, the fault-injection CI phase, and bench_fault
// exercise the resilience layer (core/resilience.hpp): it wraps any
// Objective and makes a seeded fraction of evaluation attempts throw typed
// EvalFailures. The fault schedule is a pure function of
// (spec seed, configuration bits, attempt index) — no shared counters —
// so a faulty run is bit-identical at any thread count, and replaying a
// journal (which never re-invokes the objective) cannot shift which later
// candidates fail.

#include <atomic>
#include <cstdint>
#include <optional>

#include "core/objective.hpp"
#include "core/resilience.hpp"
#include "stats/rng.hpp"

namespace hp::core {

/// Injected-failure schedule. Kind weights need not sum to 1; they are
/// normalized (all zero = everything Transient). Timeouts are not
/// injected: the fleet's job deadline is what times a job out.
struct FaultSpec {
  /// Probability that any single evaluation attempt fails.
  double failure_rate = 0.2;
  /// Seeds the fault streams (independent of the run / objective seeds).
  std::uint64_t seed = 1234;
  double transient_weight = 1.0;
  double persistent_weight = 0.0;
  double diverged_weight = 0.0;

  // Process-level chaos, honored by the fleet worker (src/cli/worker_main)
  // rather than the objective decorator: the scheduled fault fires while
  // the worker is evaluating the given sample, exercising the scheduler's
  // Lost/requeue paths. Rates are per (sample, dispatch attempt), so a
  // requeued job can hit a second fault on its retry.
  /// Probability the worker SIGKILLs itself mid-evaluation.
  double worker_kill_rate = 0.0;
  /// Probability the worker stops heartbeating and wedges (scheduler must
  /// declare it Lost and SIGKILL it).
  double worker_hang_rate = 0.0;
  /// Probability the worker corrupts its result frame (one payload byte
  /// flipped after the checksum is computed).
  double reply_corrupt_rate = 0.0;
};

/// A process-level fault the chaos schedule assigns to one dispatch.
enum class WorkerFault { Kill, Hang, CorruptReply };

/// The worker fault scheduled for (spec seed, sample, dispatch attempt),
/// or nullopt. Pure — the scheduler and the worker can both compute it,
/// and CI can predict how many workers a chaos run must lose. Checked in
/// order kill, hang, corrupt from one uniform draw per dispatch.
[[nodiscard]] std::optional<WorkerFault> scheduled_worker_fault(
    const FaultSpec& spec, std::size_t sample_index,
    std::size_t dispatch_attempt) noexcept;

/// Objective decorator that injects EvalFailures per the spec, delegating
/// everything else to the wrapped objective. The attempt index comes from
/// current_attempt(), so the first try of a candidate can fail while its
/// retry succeeds — the schedule is per (configuration, attempt), not per
/// call order.
class FaultInjectingObjective final : public Objective {
 public:
  /// Virtual cost charged for each injected failed attempt (a crashed
  /// training run still burned GPU time before dying).
  static constexpr double kFailedAttemptCostS = 5.0;

  /// @param inner the real objective; must outlive this decorator.
  FaultInjectingObjective(Objective& inner, FaultSpec spec)
      : inner_(inner), spec_(spec) {}

  [[nodiscard]] EvaluationRecord evaluate(
      const Configuration& config,
      const EarlyTerminationRule* early_termination) override;

  [[nodiscard]] bool supports_concurrent_evaluation() const noexcept override {
    return inner_.supports_concurrent_evaluation();
  }

  [[nodiscard]] EvaluationRecord evaluate_detached(
      const Configuration& config,
      const EarlyTerminationRule* early_termination) override;

  [[nodiscard]] Clock& clock() override { return inner_.clock(); }

  /// Failures injected so far (diagnostic; not part of the fault schedule).
  [[nodiscard]] std::size_t injected_failures() const noexcept {
    return injected_.load(std::memory_order_relaxed);
  }

  /// The fault the schedule assigns to (config, attempt), or nullopt when
  /// that attempt passes through. Pure; exposed for tests.
  [[nodiscard]] std::optional<FailureKind> scheduled_fault(
      const Configuration& config, std::size_t attempt) const;

 private:
  /// Throws the scheduled EvalFailure for this (config, attempt) if any.
  void maybe_fail(const Configuration& config);

  Objective& inner_;
  FaultSpec spec_;
  std::atomic<std::size_t> injected_{0};
};

/// Deterministic hash of a configuration's double bit patterns, used to
/// key per-candidate fault streams. Also reused by tests to predict
/// schedules.
[[nodiscard]] std::uint64_t hash_configuration(
    const Configuration& config) noexcept;

}  // namespace hp::core
