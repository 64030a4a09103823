#include "core/resilience.hpp"

#include <cmath>
#include <utility>

#include "hw/sensor.hpp"
#include "obs/log.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace hp::core {
namespace {

/// Salt separating the backoff-jitter streams from every other consumer of
/// the run seed (proposal rng, sensor streams, fault schedules).
constexpr std::uint64_t kBackoffSalt = 0x9e3779b97f4a7c15ULL;

thread_local std::size_t tls_current_attempt = 0;

/// RAII setter for current_attempt(); restores 0 on scope exit so code
/// outside a resilient evaluation never sees a stale attempt index.
class AttemptScope {
 public:
  explicit AttemptScope(std::size_t attempt) { tls_current_attempt = attempt; }
  ~AttemptScope() { tls_current_attempt = 0; }
  AttemptScope(const AttemptScope&) = delete;
  AttemptScope& operator=(const AttemptScope&) = delete;
};

/// Virtual seconds the failed attempt consumed (only EvalFailure knows).
[[nodiscard]] double failure_cost_s(const std::exception& e) noexcept {
  if (const auto* failure = dynamic_cast<const EvalFailure*>(&e)) {
    return failure->cost_s();
  }
  return 0.0;
}

}  // namespace

FailureKind classify_failure(const std::exception& e) noexcept {
  if (const auto* failure = dynamic_cast<const EvalFailure*>(&e)) {
    return failure->kind();
  }
  if (dynamic_cast<const hw::SensorError*>(&e) != nullptr) {
    return FailureKind::Transient;
  }
  return FailureKind::Persistent;
}

void RetryPolicy::validate() const {
  // Written so that NaN fails every comparison and lands in the throw.
  if (!(std::isfinite(backoff_initial_s) && backoff_initial_s >= 0.0)) {
    throw std::invalid_argument(
        "RetryPolicy: backoff_initial_s must be finite and >= 0");
  }
  if (!(std::isfinite(backoff_multiplier) && backoff_multiplier > 0.0)) {
    throw std::invalid_argument(
        "RetryPolicy: backoff_multiplier must be finite and > 0");
  }
  if (!(backoff_jitter >= 0.0 && backoff_jitter < 1.0)) {
    throw std::invalid_argument(
        "RetryPolicy: backoff_jitter must be in [0, 1)");
  }
}

double RetryPolicy::backoff_s(std::size_t retry_index, stats::Rng& rng) const {
  if (retry_index == 0) {
    throw std::invalid_argument("RetryPolicy::backoff_s: retry_index is 1-based");
  }
  validate();
  const double base =
      backoff_initial_s *
      std::pow(backoff_multiplier, static_cast<double>(retry_index - 1));
  const double factor = 1.0 + backoff_jitter * (2.0 * rng.uniform() - 1.0);
  return base * factor;
}

std::size_t current_attempt() noexcept { return tls_current_attempt; }

ResilientEvaluator::ResilientEvaluator(Objective& objective, RetryPolicy policy,
                                       std::uint64_t run_seed)
    : objective_(objective), policy_(policy), run_seed_(run_seed) {
  policy_.validate();
}

ResilientOutcome ResilientEvaluator::evaluate(const Configuration& config,
                                              const EarlyTerminationRule* rule,
                                              std::size_t sample_index,
                                              bool detached) {
  const std::size_t max_attempts = policy_.max_attempts > 0
                                       ? policy_.max_attempts
                                       : static_cast<std::size_t>(1);
  stats::Rng jitter_rng(
      stats::stream_seed(run_seed_ ^ kBackoffSalt, sample_index));
  auto& log = obs::logger();

  obs::ScopedTimer sample_span("optimizer.sample.evaluate", sample_index);
  sample_span.trace_arg({"sample", sample_index});

  double extra_cost_s = 0.0;  // failed attempts + backoff, in virtual seconds
  FailureKind last_kind = FailureKind::Persistent;
  for (std::size_t attempt_index = 1;; ++attempt_index) {
    obs::ScopedTimer attempt_span("optimizer.sample.attempt", attempt_index);
    attempt_span.trace_arg({"attempt", attempt_index});
    try {
      EvaluationRecord record = [&] {
        const AttemptScope scope(attempt_index);
        return detached ? objective_.evaluate_detached(config, rule)
                        : objective_.evaluate(config, rule);
      }();
      attempt_span.stop();
      record.attempts = attempt_index;
      record.cost_s += extra_cost_s;
      ResilientOutcome outcome;
      outcome.record = std::move(record);
      outcome.retries = attempt_index - 1;
      return outcome;
    } catch (const std::exception& e) {
      last_kind = classify_failure(e);
      attempt_span.trace_arg({"kind", failure_kind_name(last_kind)});
      attempt_span.stop();
      const double attempt_cost = failure_cost_s(e);
      extra_cost_s += attempt_cost;
      if (!detached) objective_.clock().advance(attempt_cost);
      const bool retry =
          policy_.retryable(last_kind) && attempt_index < max_attempts;
      if (log.enabled(obs::LogLevel::kWarn)) {
        log.warn(retry ? "eval.retry" : "eval.failed",
                 {{"sample", obs::JsonValue(sample_index)},
                  {"attempt", obs::JsonValue(attempt_index)},
                  {"kind", obs::JsonValue(to_string(last_kind))},
                  {"error", obs::JsonValue(e.what())}});
      }
      if (obs::tracer().enabled()) {
        obs::tracer().instant(retry ? "eval.retry" : "eval.failed",
                              {{"sample", sample_index},
                               {"attempt", attempt_index},
                               {"kind", failure_kind_name(last_kind)}});
      }
      if (!retry) {
        ResilientOutcome outcome;
        outcome.record.config = config;
        outcome.record.status = EvaluationStatus::Failed;
        outcome.record.test_error = 1.0;
        outcome.record.cost_s = extra_cost_s;
        outcome.record.attempts = attempt_index;
        outcome.record.failure_kind = last_kind;
        outcome.retries = attempt_index - 1;
        outcome.failed = true;
        return outcome;
      }
      const double backoff = policy_.backoff_s(attempt_index, jitter_rng);
      if (obs::tracer().enabled()) {
        obs::tracer().instant(
            "eval.backoff",
            {{"sample", sample_index}, {"backoff_s", backoff}});
      }
      extra_cost_s += backoff;
      if (!detached) objective_.clock().advance(backoff);
    }
  }
}

}  // namespace hp::core
