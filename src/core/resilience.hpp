#pragma once
// Resilience layer for candidate evaluation: HyperPower's premise is that
// training candidates is the expensive, flaky part of HPO, so one thrown
// exception from an objective must not discard hours of accumulated
// evaluations. This header provides
//   - EvalFailure: a typed evaluation error carrying a FailureKind (see
//     core/objective.hpp) and the virtual cost the failed attempt consumed;
//   - RetryPolicy: max attempts, deterministic exponential backoff with
//     seeded jitter, a per-attempt wall-clock deadline, and the
//     consecutive-failure budget after which a run aborts;
//   - ResilientEvaluator: the retry/timeout wrapper around
//     Objective::evaluate / evaluate_detached used by the Optimizer's
//     driver loop (the only production caller of the raw objective;
//     enforced by tools/lint.py rule raw-objective-evaluate).
//     A candidate whose attempts are exhausted becomes a Failed record
//     (recorded and skipped) instead of killing the run.
//
// Determinism contract: every retry decision is a pure function of
// (run seed, sample index, attempt number) — backoff jitter comes from a
// per-sample stats::stream_seed stream, and fault-injection decorators key
// their schedules off current_attempt() — so a faulty run is bit-identical
// at any thread count and across journal resume.

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/clock.hpp"
#include "core/thread_annotations.hpp"
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

/// Retry/timeout policy applied per evaluated sample.
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
  /// Wall-clock deadline per attempt, in real seconds. Enforced by running
  /// the attempt on a watchdog thread — only possible for objectives with
  /// supports_concurrent_evaluation() (a detached attempt touches no shared
  /// clock); otherwise the deadline is ignored with a warning.
  double eval_timeout_s = std::numeric_limits<double>::infinity();
  /// The run aborts (Result.aborted) after this many consecutive Failed
  /// samples — the run-level guard against a persistently broken
  /// environment looping forever. 0 = never abort.
  std::size_t max_consecutive_failed_samples = 20;

  /// True when a failure of @p kind is worth another attempt.
  [[nodiscard]] bool retryable(FailureKind kind) const noexcept {
    return kind == FailureKind::Transient || kind == FailureKind::Timeout;
  }
  /// Deterministic backoff before retry @p retry_index (1-based), drawing
  /// jitter from @p rng. Throws std::invalid_argument on a non-positive
  /// multiplier or jitter outside [0, 1).
  [[nodiscard]] double backoff_s(std::size_t retry_index,
                                 stats::Rng& rng) const;
};

/// 1-based attempt index of the resilient evaluation currently running on
/// this thread (0 outside one). Set by ResilientEvaluator around each
/// attempt — including on the watchdog thread — so fault-injection
/// decorators can key deterministic per-(config, attempt) schedules
/// without any shared mutable state.
[[nodiscard]] std::size_t current_attempt() noexcept;

/// Runs evaluation attempts under a wall-clock deadline on a watchdog
/// thread. A timed-out attempt is abandoned to a zombie list (its thread
/// keeps running) and joined at destruction, so destruction blocks until
/// every abandoned attempt actually returned — simulated hangs in tests
/// must therefore be finite. Thread-safe: run() may be called concurrently
/// (the internal lock guards only the zombie list, never the wait).
class DeadlineRunner {
 public:
  DeadlineRunner();  // out of line: Zombie is incomplete here
  ~DeadlineRunner();

  DeadlineRunner(const DeadlineRunner&) = delete;
  DeadlineRunner& operator=(const DeadlineRunner&) = delete;

  /// Runs @p attempt on a worker thread and waits up to @p deadline_s wall
  /// seconds. Returns true when the attempt finished (its result or
  /// exception is in @p out / rethrown); false on timeout.
  bool run(const std::function<EvaluationRecord()>& attempt,
           double deadline_s, EvaluationRecord* out);

  /// Timed-out attempts still running (diagnostic).
  [[nodiscard]] std::size_t zombie_count();

 private:
  void reap_finished_locked() HP_REQUIRES(mutex_);

  struct Zombie;
  /// Leaf lock (DESIGN.md §14): guards only the zombie list, never the
  /// deadline wait itself, so concurrent run() calls only contend on
  /// bookkeeping. Never held while acquiring another hp::Mutex (the joins
  /// under it block on threads, not locks).
  Mutex mutex_;
  std::vector<std::unique_ptr<Zombie>> zombies_ HP_GUARDED_BY(mutex_);
};

/// Outcome of one resilient evaluation, for the optimizer's bookkeeping.
struct ResilientOutcome {
  EvaluationRecord record;
  std::size_t retries = 0;   ///< attempts beyond the first
  bool failed = false;       ///< record.status == Failed
};

/// Wraps an Objective with the retry/timeout/backoff policy. One instance
/// per optimizer run; safe to call evaluate() concurrently from pool
/// workers when the objective supports concurrent evaluation.
class ResilientEvaluator {
 public:
  /// @param objective the wrapped evaluation; must outlive the evaluator.
  /// @param policy the retry policy (validated on first use).
  /// @param run_seed seeds the per-sample backoff jitter streams.
  ResilientEvaluator(Objective& objective, RetryPolicy policy,
                     std::uint64_t run_seed);
  ~ResilientEvaluator() = default;

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
  /// One attempt, under the deadline when armed. Throws on failure.
  [[nodiscard]] EvaluationRecord attempt(const Configuration& config,
                                         const EarlyTerminationRule* rule,
                                         std::size_t attempt_index,
                                         bool detached);

  Objective& objective_;
  RetryPolicy policy_;
  std::uint64_t run_seed_;
  /// Deadline enforcement runs attempts on a watchdog thread, which is only
  /// safe via the detached path (a timed-out zombie attempt must not keep
  /// mutating the shared clock); resolved once at construction.
  bool deadline_armed_;
  DeadlineRunner deadline_runner_;
};

}  // namespace hp::core
