#include "core/resilience.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <vector>

#include "fake_objective.hpp"
#include "hw/sensor.hpp"

namespace hp::core {
namespace {

/// FakeObjective wrapper whose before_attempt hook can throw, keyed by
/// current_attempt() — the same channel the real fault-injection decorator
/// uses.
class FlakyObjective final : public Objective {
 public:
  explicit FlakyObjective(double cost_s = 10.0)
      : inner_(testing::fake_space(), cost_s) {}

  std::function<void(std::size_t attempt)> before_attempt;

  [[nodiscard]] EvaluationRecord evaluate(
      const Configuration& config,
      const EarlyTerminationRule* early_termination) override {
    if (before_attempt) before_attempt(current_attempt());
    return inner_.evaluate(config, early_termination);
  }
  [[nodiscard]] bool supports_concurrent_evaluation() const noexcept override {
    return inner_.supports_concurrent_evaluation();
  }
  [[nodiscard]] EvaluationRecord evaluate_detached(
      const Configuration& config,
      const EarlyTerminationRule* early_termination) override {
    if (before_attempt) before_attempt(current_attempt());
    return inner_.evaluate_detached(config, early_termination);
  }
  [[nodiscard]] Clock& clock() override { return inner_.clock(); }

  [[nodiscard]] std::size_t evaluations() const noexcept {
    return inner_.evaluations();
  }

 private:
  testing::FakeObjective inner_;
};

Configuration some_config() { return {0.4, 0.6}; }

RetryPolicy jitterless_policy() {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_initial_s = 30.0;
  policy.backoff_multiplier = 2.0;
  policy.backoff_jitter = 0.0;
  return policy;
}

TEST(RetryPolicy, BackoffIsDeterministicAndBounded) {
  RetryPolicy policy;
  policy.backoff_initial_s = 30.0;
  policy.backoff_multiplier = 2.0;
  policy.backoff_jitter = 0.1;
  stats::Rng a(42);
  stats::Rng b(42);
  for (std::size_t retry = 1; retry <= 4; ++retry) {
    const double base = 30.0 * std::pow(2.0, static_cast<double>(retry - 1));
    const double value = policy.backoff_s(retry, a);
    EXPECT_EQ(value, policy.backoff_s(retry, b));  // bit-identical
    EXPECT_GE(value, base * 0.9);
    EXPECT_LE(value, base * 1.1);
  }
}

TEST(RetryPolicy, BackoffValidatesParameters) {
  stats::Rng rng(1);
  RetryPolicy policy;
  EXPECT_THROW((void)policy.backoff_s(0, rng), std::invalid_argument);
  policy.backoff_multiplier = 0.0;
  EXPECT_THROW((void)policy.backoff_s(1, rng), std::invalid_argument);
  policy = RetryPolicy{};
  policy.backoff_jitter = 1.0;
  EXPECT_THROW((void)policy.backoff_s(1, rng), std::invalid_argument);
  policy = RetryPolicy{};
  policy.backoff_initial_s = -1.0;
  EXPECT_THROW((void)policy.backoff_s(1, rng), std::invalid_argument);
}

TEST(RetryPolicy, ValidateRejectsBadValues) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* name;
    double initial_s, multiplier, jitter;
    bool valid;
  };
  const Case cases[] = {
      {"defaults", 30.0, 2.0, 0.1, true},
      {"zero initial, zero jitter", 0.0, 0.5, 0.0, true},
      {"negative initial", -1.0, 2.0, 0.1, false},
      {"NaN initial", kNaN, 2.0, 0.1, false},
      {"infinite initial", kInf, 2.0, 0.1, false},
      {"zero multiplier", 30.0, 0.0, 0.1, false},
      {"negative multiplier", 30.0, -2.0, 0.1, false},
      {"NaN multiplier", 30.0, kNaN, 0.1, false},
      {"infinite multiplier", 30.0, kInf, 0.1, false},
      {"negative jitter", 30.0, 2.0, -0.1, false},
      {"jitter of one", 30.0, 2.0, 1.0, false},
      {"NaN jitter", 30.0, 2.0, kNaN, false},
  };
  for (const Case& c : cases) {
    RetryPolicy policy;
    policy.backoff_initial_s = c.initial_s;
    policy.backoff_multiplier = c.multiplier;
    policy.backoff_jitter = c.jitter;
    if (c.valid) {
      EXPECT_NO_THROW(policy.validate()) << c.name;
    } else {
      EXPECT_THROW(policy.validate(), std::invalid_argument) << c.name;
    }
  }
}

TEST(Clock, AdvanceRejectsNegativeAndNaNDurations) {
  Clock clock;
  clock.advance(2.5);
  EXPECT_THROW(clock.advance(-1.0), std::invalid_argument);
  EXPECT_THROW(clock.advance(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_DOUBLE_EQ(clock.now_s(), 2.5);
}

TEST(RetryPolicy, OnlyTransientAndTimeoutAreRetryable) {
  const RetryPolicy policy;
  EXPECT_TRUE(policy.retryable(FailureKind::Transient));
  EXPECT_TRUE(policy.retryable(FailureKind::Timeout));
  EXPECT_FALSE(policy.retryable(FailureKind::Persistent));
  EXPECT_FALSE(policy.retryable(FailureKind::Diverged));
}

TEST(ClassifyFailure, MapsExceptionTypesToKinds) {
  EXPECT_EQ(classify_failure(EvalFailure(FailureKind::Diverged, "x")),
            FailureKind::Diverged);
  EXPECT_EQ(classify_failure(EvalFailure(FailureKind::Timeout, "x")),
            FailureKind::Timeout);
  EXPECT_EQ(classify_failure(hw::SensorError("dark sensor")),
            FailureKind::Transient);
  EXPECT_EQ(classify_failure(std::runtime_error("model too large")),
            FailureKind::Persistent);
  EXPECT_EQ(classify_failure(std::invalid_argument("bad spec")),
            FailureKind::Persistent);
}

TEST(ResilientEvaluator, RetriesTransientFailuresUntilSuccess) {
  FlakyObjective objective;
  objective.before_attempt = [](std::size_t attempt) {
    if (attempt < 3) {
      throw EvalFailure(FailureKind::Transient, "injected", 5.0);
    }
  };
  ResilientEvaluator evaluator(objective, jitterless_policy(), /*seed=*/1);
  const ResilientOutcome outcome =
      evaluator.evaluate(some_config(), nullptr, 0, /*detached=*/false);
  EXPECT_FALSE(outcome.failed);
  EXPECT_EQ(outcome.retries, 2u);
  EXPECT_EQ(outcome.record.attempts, 3u);
  EXPECT_EQ(outcome.record.status, EvaluationStatus::Completed);
  // 2 failed attempts (5 s each) + backoffs 30 s and 60 s + success (10 s).
  EXPECT_DOUBLE_EQ(outcome.record.cost_s, 110.0);
  EXPECT_DOUBLE_EQ(objective.clock().now_s(), 110.0);
}

TEST(ResilientEvaluator, PersistentFailureIsNotRetried) {
  FlakyObjective objective;
  objective.before_attempt = [](std::size_t) {
    throw EvalFailure(FailureKind::Persistent, "broken spec", 5.0);
  };
  ResilientEvaluator evaluator(objective, jitterless_policy(), 1);
  const ResilientOutcome outcome =
      evaluator.evaluate(some_config(), nullptr, 0, false);
  EXPECT_TRUE(outcome.failed);
  EXPECT_EQ(outcome.retries, 0u);
  EXPECT_EQ(outcome.record.status, EvaluationStatus::Failed);
  EXPECT_EQ(outcome.record.attempts, 1u);
  ASSERT_TRUE(outcome.record.failure_kind.has_value());
  EXPECT_EQ(*outcome.record.failure_kind, FailureKind::Persistent);
  EXPECT_EQ(outcome.record.config, some_config());
  EXPECT_DOUBLE_EQ(outcome.record.test_error, 1.0);
  EXPECT_DOUBLE_EQ(outcome.record.cost_s, 5.0);
  EXPECT_DOUBLE_EQ(objective.clock().now_s(), 5.0);
}

TEST(ResilientEvaluator, ExhaustedAttemptsYieldFailedRecord) {
  FlakyObjective objective;
  objective.before_attempt = [](std::size_t) {
    throw EvalFailure(FailureKind::Transient, "always flaky", 5.0);
  };
  ResilientEvaluator evaluator(objective, jitterless_policy(), 1);
  const ResilientOutcome outcome =
      evaluator.evaluate(some_config(), nullptr, 0, false);
  EXPECT_TRUE(outcome.failed);
  EXPECT_EQ(outcome.record.attempts, 3u);
  ASSERT_TRUE(outcome.record.failure_kind.has_value());
  EXPECT_EQ(*outcome.record.failure_kind, FailureKind::Transient);
  // 3 failed attempts (5 s) + backoffs 30 s and 60 s.
  EXPECT_DOUBLE_EQ(outcome.record.cost_s, 105.0);
  EXPECT_DOUBLE_EQ(objective.clock().now_s(), 105.0);
}

TEST(ResilientEvaluator, UntypedExceptionsCostNothingExtra) {
  FlakyObjective objective;
  objective.before_attempt = [](std::size_t) {
    throw std::runtime_error("model does not fit");  // Persistent, cost 0
  };
  ResilientEvaluator evaluator(objective, jitterless_policy(), 1);
  const ResilientOutcome outcome =
      evaluator.evaluate(some_config(), nullptr, 0, false);
  EXPECT_TRUE(outcome.failed);
  EXPECT_DOUBLE_EQ(outcome.record.cost_s, 0.0);
  EXPECT_DOUBLE_EQ(objective.clock().now_s(), 0.0);
}

TEST(ResilientEvaluator, DetachedPathFoldsAllCostsWithoutTouchingClock) {
  FlakyObjective objective;
  objective.before_attempt = [](std::size_t attempt) {
    if (attempt == 1) throw EvalFailure(FailureKind::Transient, "flaky", 5.0);
  };
  ResilientEvaluator evaluator(objective, jitterless_policy(), 1);
  const ResilientOutcome outcome =
      evaluator.evaluate(some_config(), nullptr, 4, /*detached=*/true);
  EXPECT_FALSE(outcome.failed);
  EXPECT_EQ(outcome.record.attempts, 2u);
  // failed attempt (5 s) + first backoff (30 s) + success (10 s).
  EXPECT_DOUBLE_EQ(outcome.record.cost_s, 45.0);
  EXPECT_DOUBLE_EQ(objective.clock().now_s(), 0.0);
}

TEST(ResilientEvaluator, BackoffJitterIsAPureFunctionOfSeedAndSample) {
  RetryPolicy policy = jitterless_policy();
  policy.backoff_jitter = 0.3;
  const auto run_once = [&policy](std::size_t sample_index) {
    FlakyObjective objective;
    objective.before_attempt = [](std::size_t attempt) {
      if (attempt < 3) throw EvalFailure(FailureKind::Transient, "f", 5.0);
    };
    ResilientEvaluator evaluator(objective, policy, /*seed=*/77);
    return evaluator.evaluate(some_config(), nullptr, sample_index, true)
        .record.cost_s;
  };
  EXPECT_EQ(run_once(3), run_once(3));         // same sample → identical
  EXPECT_NE(run_once(3), run_once(4));         // per-sample streams differ
}

TEST(ResilientEvaluator, CurrentAttemptIsVisibleInsideAttemptsOnly) {
  EXPECT_EQ(current_attempt(), 0u);
  FlakyObjective objective;
  std::vector<std::size_t> seen;
  objective.before_attempt = [&seen](std::size_t attempt) {
    seen.push_back(attempt);
    if (attempt < 3) throw EvalFailure(FailureKind::Transient, "f");
  };
  ResilientEvaluator evaluator(objective, jitterless_policy(), 1);
  (void)evaluator.evaluate(some_config(), nullptr, 0, false);
  EXPECT_EQ(seen, (std::vector<std::size_t>{1, 2, 3}));
  EXPECT_EQ(current_attempt(), 0u);
}

TEST(ResilientEvaluator, ZeroMaxAttemptsMeansOneAttempt) {
  FlakyObjective objective;
  objective.before_attempt = [](std::size_t) {
    throw EvalFailure(FailureKind::Transient, "f", 5.0);
  };
  RetryPolicy policy = jitterless_policy();
  policy.max_attempts = 0;
  ResilientEvaluator evaluator(objective, policy, 1);
  const ResilientOutcome outcome =
      evaluator.evaluate(some_config(), nullptr, 0, false);
  EXPECT_TRUE(outcome.failed);
  EXPECT_EQ(outcome.record.attempts, 1u);
}

// A Timeout-kind failure — what the fleet reports for a job it killed at
// its --job-deadline — is retried like a Transient one.
TEST(ResilientEvaluator, DeadlineTimesOutHungAttemptAndRetries) {
  FlakyObjective objective;
  objective.before_attempt = [](std::size_t attempt) {
    if (attempt == 1) {
      throw EvalFailure(FailureKind::Timeout, "job deadline exceeded", 0.0);
    }
  };
  RetryPolicy policy = jitterless_policy();
  policy.backoff_initial_s = 1.0;
  ResilientEvaluator evaluator(objective, policy, 1);
  const ResilientOutcome outcome =
      evaluator.evaluate(some_config(), nullptr, 0, /*detached=*/false);
  EXPECT_FALSE(outcome.failed);
  EXPECT_EQ(outcome.record.attempts, 2u);
  EXPECT_EQ(outcome.record.status, EvaluationStatus::Completed);
  // Timed-out attempt costs no virtual time; one backoff (1 s) + success.
  EXPECT_DOUBLE_EQ(outcome.record.cost_s, 11.0);
  EXPECT_DOUBLE_EQ(objective.clock().now_s(), 11.0);
}

TEST(ResilientEvaluator, ExhaustedTimeoutsYieldTimeoutFailedRecord) {
  FlakyObjective objective;
  objective.before_attempt = [](std::size_t) {
    throw EvalFailure(FailureKind::Timeout, "job deadline exceeded", 0.0);
  };
  RetryPolicy policy = jitterless_policy();
  policy.max_attempts = 2;
  policy.backoff_initial_s = 1.0;
  ResilientEvaluator evaluator(objective, policy, 1);
  const ResilientOutcome outcome =
      evaluator.evaluate(some_config(), nullptr, 0, false);
  EXPECT_TRUE(outcome.failed);
  ASSERT_TRUE(outcome.record.failure_kind.has_value());
  EXPECT_EQ(*outcome.record.failure_kind, FailureKind::Timeout);
  EXPECT_EQ(outcome.record.attempts, 2u);
}

TEST(ResilientEvaluator, ConstructorRejectsAnInvalidPolicy) {
  FlakyObjective objective;
  RetryPolicy policy;
  policy.backoff_initial_s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(ResilientEvaluator(objective, policy, 1), std::invalid_argument);
}

}  // namespace
}  // namespace hp::core
