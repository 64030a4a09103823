#pragma once
// The objective-function interface of the optimization loop, and the record
// type every method produces per queried sample. Evaluating the objective
// = generating + training + testing one candidate NN (step 2 of the BO
// iteration, "the most expensive step"), followed by measuring inference
// power/memory on the target platform.

#include <optional>
#include <string>

#include "core/clock.hpp"
#include "core/early_termination.hpp"
#include "core/search_space.hpp"

namespace hp::core {

/// How an evaluation ended.
enum class EvaluationStatus {
  /// Trained to completion; test error is the real final error.
  Completed,
  /// Aborted after a few epochs by the early-termination rule (diverging
  /// candidate); test error is the chance-level error at abort time.
  EarlyTerminated,
  /// Never evaluated: the a-priori power/memory models predicted a budget
  /// violation, so the candidate was discarded before training
  /// (HyperPower enhancement; only the cheap model evaluation was paid).
  ModelFiltered,
  /// Network generation failed (spatial dimensions collapsed); the
  /// framework only paid the generation attempt.
  InfeasibleArchitecture,
  /// Every evaluation attempt threw (or the first failure was
  /// non-retryable): the candidate was recorded and skipped instead of
  /// killing the run (see core/resilience.hpp).
  Failed,
};

[[nodiscard]] std::string to_string(EvaluationStatus status);

/// Failure taxonomy of the resilience layer (core/resilience.hpp): how an
/// evaluation attempt failed, which decides whether it is retried.
enum class FailureKind {
  /// Flaky infrastructure (lost worker, sensor glitch): worth retrying.
  Transient,
  /// Deterministic defect (bad spec, model too large): retrying cannot
  /// help.
  Persistent,
  /// The attempt blew its wall-clock deadline (hung candidate): the fleet
  /// killed its worker at --job-deadline. Retried, since hangs are usually
  /// environmental.
  Timeout,
  /// Training reported an unrecoverable numeric blow-up (NaN loss) before
  /// the early-termination rule could catch it; not retried.
  Diverged,
};

[[nodiscard]] std::string to_string(FailureKind kind);
/// Same strings as to_string, but as static literals — safe to hand to the
/// tracer/flight recorder, which store pointers rather than copies.
[[nodiscard]] const char* failure_kind_name(FailureKind kind) noexcept;
[[nodiscard]] std::optional<FailureKind> failure_kind_from_string(
    const std::string& name);

/// One queried sample with everything the experiment tables need.
struct EvaluationRecord {
  Configuration config;
  EvaluationStatus status = EvaluationStatus::Completed;
  /// Final test error in [0,1]; 1.0 (or chance level) for non-completed.
  double test_error = 1.0;
  bool diverged = false;
  /// Power measured during inference on the target platform (absent for
  /// samples that never reached measurement).
  std::optional<double> measured_power_w;
  /// Measured memory; also absent on platforms without the counter.
  std::optional<double> measured_memory_mb;
  /// True if the *measured* values violate the active budgets (set by the
  /// optimizer; ModelFiltered samples count as violating by prediction).
  bool violates_constraints = false;
  /// Clock cost of handling this sample (training + profiling + overhead,
  /// plus failed attempts and retry backoff when the sample was retried).
  double cost_s = 0.0;
  /// Clock timestamp when the sample finished (filled by the optimizer).
  double timestamp_s = 0.0;
  /// 0-based sample index within the run (filled by the optimizer).
  std::size_t index = 0;
  /// False when measured_power_w / measured_memory_mb came from the
  /// predictive fallback models after live sensor reads failed (graceful
  /// degradation), not from the sensors themselves.
  bool measured = true;
  /// Evaluation attempts consumed (1 = the first try succeeded; > 1 means
  /// the resilience layer retried).
  std::size_t attempts = 1;
  /// Terminal failure kind when status == Failed.
  std::optional<FailureKind> failure_kind;

  /// True when the sample invoked the objective (a completed or
  /// early-terminated training): one of the paper's "function evaluations".
  [[nodiscard]] bool function_evaluation() const noexcept {
    return status == EvaluationStatus::Completed ||
           status == EvaluationStatus::EarlyTerminated;
  }
  /// A function evaluation whose *measured* metrics break a budget: the
  /// constraint violations of Figure 4 center.
  [[nodiscard]] bool measured_violation() const noexcept {
    return function_evaluation() && violates_constraints;
  }
  /// A sample counts toward the incumbent only if it completed training and
  /// satisfies the (measured) constraints.
  [[nodiscard]] bool counts_for_best() const noexcept {
    return status == EvaluationStatus::Completed && !diverged &&
           !violates_constraints;
  }
};

/// The expensive black-box function f(x): train the candidate and measure
/// its hardware characteristics. Implementations advance their Clock by
/// the (virtual or real) duration of the work.
class Objective {
 public:
  virtual ~Objective() = default;

  /// Fully evaluates @p config. If @p early_termination is non-null, the
  /// implementation applies the rule after each training epoch and may
  /// return EarlyTerminated. Fills test_error, diverged, measured power /
  /// memory and cost_s; other fields are the optimizer's responsibility.
  [[nodiscard]] virtual EvaluationRecord evaluate(
      const Configuration& config,
      const EarlyTerminationRule* early_termination) = 0;

  /// True when evaluate_detached() may be called, including concurrently
  /// from several threads. Implementations return true only if a detached
  /// evaluation is a pure function of (config, rule, objective seeds) —
  /// independent of the order or thread in which evaluations run — which
  /// is what keeps batched-parallel optimizer runs bit-identical to
  /// single-threaded ones.
  [[nodiscard]] virtual bool supports_concurrent_evaluation() const noexcept {
    return false;
  }

  /// Order-independent counterpart of evaluate(): fills the same fields
  /// (including cost_s) but must NOT advance the shared clock — the
  /// batched optimizer charges cost_s itself while merging records in
  /// canonical sample order. Only called when
  /// supports_concurrent_evaluation() is true; the default throws
  /// std::logic_error.
  [[nodiscard]] virtual EvaluationRecord evaluate_detached(
      const Configuration& config,
      const EarlyTerminationRule* early_termination);

  /// The clock this objective charges its costs to.
  [[nodiscard]] virtual Clock& clock() = 0;
};

}  // namespace hp::core
