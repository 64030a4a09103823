#pragma once
// Resilience layer for candidate evaluation: HyperPower's premise is that
// training candidates is the expensive, flaky part of HPO, so one thrown
// exception from an objective must not discard hours of accumulated
// evaluations. This header provides
//   - EvalFailure: a typed evaluation error carrying a FailureKind (see
//     core/objective.hpp) and the virtual cost the failed attempt consumed;
//   - RetryPolicy: max attempts, deterministic exponential backoff with
//     seeded jitter, and the consecutive-failure budget after which a run
//     aborts;
//   - ResilientEvaluator: the retry wrapper around
//     Objective::evaluate / evaluate_detached used by the Optimizer's
//     driver loop (the only production caller of the raw objective;
//     enforced by tools/lint.py rule raw-objective-evaluate).
//     A candidate whose attempts are exhausted becomes a Failed record
//     (recorded and skipped) instead of killing the run.
//
// There is no in-process wall-clock deadline: an attempt runs inline on
// the calling thread. A hung evaluation is killed where one can happen —
// in a fleet worker, by the FleetScheduler's SIGKILL job deadline
// (dist/job_scheduler.hpp), which reports it as a Timeout failure.
//
// Determinism contract: every retry decision is a pure function of
// (run seed, sample index, attempt number) — backoff jitter comes from a
// per-sample stats::stream_seed stream, and fault-injection decorators key
// their schedules off current_attempt() — so a faulty run is bit-identical
// at any thread count and across journal resume.

#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/objective.hpp"
#include "stats/rng.hpp"

namespace hp::core {

/// A typed evaluation failure. Objectives (and their fault-injection
/// decorators) throw this to tell the resilience layer how the attempt
/// failed and how much virtual time it burned before failing; any other
/// exception type is classified as Persistent with zero cost.
class EvalFailure : public std::runtime_error {
 public:
  EvalFailure(FailureKind kind, const std::string& what, double cost_s = 0.0)
      : std::runtime_error(what), kind_(kind), cost_s_(cost_s) {}

  [[nodiscard]] FailureKind kind() const noexcept { return kind_; }
  /// Virtual seconds the failed attempt consumed (charged to the clock).
  [[nodiscard]] double cost_s() const noexcept { return cost_s_; }

 private:
  FailureKind kind_;
  double cost_s_;
};

/// Maps an in-flight exception to a FailureKind: EvalFailure carries its
/// own kind, hw::SensorError (hw/sensor.hpp) is Transient, everything else
/// is Persistent.
[[nodiscard]] FailureKind classify_failure(const std::exception& e) noexcept;

/// Retry policy applied per evaluated sample.
struct RetryPolicy {
  /// Total tries per candidate (1 = no retries).
  std::size_t max_attempts = 3;
  /// Backoff before retry k (1-based) is
  ///   backoff_initial_s * backoff_multiplier^(k-1) * (1 ± jitter),
  /// charged to the virtual clock; jitter is uniform from the sample's
  /// seeded stream so it never depends on scheduling.
  double backoff_initial_s = 30.0;
  double backoff_multiplier = 2.0;
  double backoff_jitter = 0.1;
  /// The run aborts (Result.aborted) after this many consecutive Failed
  /// samples — the run-level guard against a persistently broken
  /// environment looping forever. 0 = never abort.
  std::size_t max_consecutive_failed_samples = 20;

  /// True when a failure of @p kind is worth another attempt.
  [[nodiscard]] bool retryable(FailureKind kind) const noexcept {
    return kind == FailureKind::Transient || kind == FailureKind::Timeout;
  }
  /// Throws std::invalid_argument unless backoff_initial_s is finite and
  /// >= 0, backoff_multiplier finite and > 0, and backoff_jitter in
  /// [0, 1). NaN fails every check: a NaN backoff would poison the virtual
  /// clock (or a fleet requeue time) and the run would never end.
  void validate() const;
  /// Deterministic backoff before retry @p retry_index (1-based), drawing
  /// jitter from @p rng. Throws std::invalid_argument on a zero index or
  /// when validate() does.
  [[nodiscard]] double backoff_s(std::size_t retry_index,
                                 stats::Rng& rng) const;
};

/// 1-based attempt index of the resilient evaluation currently running on
/// this thread (0 outside one). Set by ResilientEvaluator around each
/// attempt, so fault-injection decorators can key deterministic
/// per-(config, attempt) schedules without any shared mutable state.
[[nodiscard]] std::size_t current_attempt() noexcept;

/// Outcome of one resilient evaluation, for the optimizer's bookkeeping.
struct ResilientOutcome {
  EvaluationRecord record;
  std::size_t retries = 0;   ///< attempts beyond the first
  bool failed = false;       ///< record.status == Failed
};

/// Wraps an Objective with the retry/backoff policy. One instance per
/// optimizer run; holds no mutable state, so evaluate() may be called
/// concurrently from pool workers when the objective supports concurrent
/// evaluation.
class ResilientEvaluator {
 public:
  /// @param objective the wrapped evaluation; must outlive the evaluator.
  /// @param policy the retry policy; throws std::invalid_argument when
  ///   RetryPolicy::validate() does.
  /// @param run_seed seeds the per-sample backoff jitter streams.
  ResilientEvaluator(Objective& objective, RetryPolicy policy,
                     std::uint64_t run_seed);

  ResilientEvaluator(const ResilientEvaluator&) = delete;
  ResilientEvaluator& operator=(const ResilientEvaluator&) = delete;

  /// Evaluates @p config with retries. @p sample_index keys the
  /// deterministic jitter stream. When @p detached is true the objective's
  /// evaluate_detached path is used and all costs (attempts + backoff) are
  /// folded into record.cost_s without touching the clock; otherwise
  /// evaluate() runs and failure/backoff costs are charged to the
  /// objective's clock directly. Never throws on evaluation failure — the
  /// returned record has status Failed after attempts are exhausted.
  [[nodiscard]] ResilientOutcome evaluate(
      const Configuration& config, const EarlyTerminationRule* rule,
      std::size_t sample_index, bool detached);

  [[nodiscard]] const RetryPolicy& policy() const noexcept { return policy_; }

 private:
  Objective& objective_;
  RetryPolicy policy_;
  std::uint64_t run_seed_;
};

}  // namespace hp::core
