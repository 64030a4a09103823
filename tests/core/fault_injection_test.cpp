#include "core/fault_injection.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <set>
#include <vector>

#include "core/resilience.hpp"
#include "fake_objective.hpp"

namespace hp::core {
namespace {

Configuration config_at(double a, double b) { return {a, b}; }

TEST(FaultInjection, ScheduleIsAPureFunctionOfSeedConfigAndAttempt) {
  testing::FakeObjective inner(testing::fake_space());
  FaultSpec spec;
  spec.failure_rate = 0.5;
  FaultInjectingObjective a(inner, spec);
  FaultInjectingObjective b(inner, spec);
  for (int i = 0; i < 32; ++i) {
    const Configuration config = config_at(0.01 * i, 1.0 - 0.02 * i);
    for (std::size_t attempt = 1; attempt <= 3; ++attempt) {
      EXPECT_EQ(a.scheduled_fault(config, attempt),
                b.scheduled_fault(config, attempt))
          << "config " << i << " attempt " << attempt;
    }
  }
}

TEST(FaultInjection, ScheduleVariesAcrossSeedsConfigsAndAttempts) {
  testing::FakeObjective inner(testing::fake_space());
  FaultSpec spec;
  spec.failure_rate = 0.5;
  FaultInjectingObjective base(inner, spec);
  FaultSpec other = spec;
  other.seed = spec.seed + 1;
  FaultInjectingObjective reseeded(inner, other);
  int differs_by_seed = 0, differs_by_attempt = 0;
  for (int i = 0; i < 64; ++i) {
    const Configuration config = config_at(0.013 * i, 0.007 * i);
    if (base.scheduled_fault(config, 1) != reseeded.scheduled_fault(config, 1)) {
      ++differs_by_seed;
    }
    if (base.scheduled_fault(config, 1) != base.scheduled_fault(config, 2)) {
      ++differs_by_attempt;
    }
  }
  EXPECT_GT(differs_by_seed, 0);
  EXPECT_GT(differs_by_attempt, 0);
}

TEST(FaultInjection, RateZeroNeverFailsRateOneAlwaysFails) {
  testing::FakeObjective inner(testing::fake_space());
  FaultSpec never;
  never.failure_rate = 0.0;
  FaultInjectingObjective clean(inner, never);
  FaultSpec always;
  always.failure_rate = 1.0;
  FaultInjectingObjective doomed(inner, always);
  for (int i = 0; i < 16; ++i) {
    const Configuration config = config_at(0.05 * i, 0.9 - 0.05 * i);
    EXPECT_FALSE(clean.scheduled_fault(config, 1).has_value());
    EXPECT_TRUE(doomed.scheduled_fault(config, 1).has_value());
  }
  const EvaluationRecord record = clean.evaluate(config_at(0.3, 0.7), nullptr);
  EXPECT_EQ(record.status, EvaluationStatus::Completed);
  EXPECT_EQ(clean.injected_failures(), 0u);
  EXPECT_THROW((void)doomed.evaluate(config_at(0.3, 0.7), nullptr),
               EvalFailure);
  EXPECT_EQ(doomed.injected_failures(), 1u);
}

TEST(FaultInjection, KindWeightsSelectTheThrownKind) {
  testing::FakeObjective inner(testing::fake_space());
  FaultSpec spec;
  spec.failure_rate = 1.0;
  spec.transient_weight = 0.0;
  spec.persistent_weight = 1.0;
  FaultInjectingObjective faulty(inner, spec);
  const Configuration config = config_at(0.2, 0.4);
  const auto scheduled = faulty.scheduled_fault(config, 1);
  ASSERT_TRUE(scheduled.has_value());
  EXPECT_EQ(*scheduled, FailureKind::Persistent);
  try {
    (void)faulty.evaluate_detached(config, nullptr);
    FAIL() << "expected EvalFailure";
  } catch (const EvalFailure& e) {
    EXPECT_EQ(e.kind(), FailureKind::Persistent);
    EXPECT_DOUBLE_EQ(e.cost_s(), FaultInjectingObjective::kFailedAttemptCostS);
  }
}

TEST(FaultInjection, AllZeroWeightsFallBackToTransient) {
  testing::FakeObjective inner(testing::fake_space());
  FaultSpec spec;
  spec.failure_rate = 1.0;
  spec.transient_weight = 0.0;
  FaultInjectingObjective faulty(inner, spec);
  const auto scheduled = faulty.scheduled_fault(config_at(0.5, 0.5), 1);
  ASSERT_TRUE(scheduled.has_value());
  EXPECT_EQ(*scheduled, FailureKind::Transient);
}

TEST(FaultInjection, HashConfigurationSeparatesNearbyConfigs) {
  std::set<std::uint64_t> hashes;
  for (int i = 0; i < 100; ++i) {
    hashes.insert(hash_configuration(config_at(0.001 * i, 0.999 - 0.001 * i)));
  }
  EXPECT_EQ(hashes.size(), 100u);
  EXPECT_EQ(hash_configuration(config_at(0.25, 0.75)),
            hash_configuration(config_at(0.25, 0.75)));
}

TEST(FaultInjection, FailureRateIsRoughlyHonored) {
  testing::FakeObjective inner(testing::fake_space());
  FaultSpec spec;
  spec.failure_rate = 0.2;
  FaultInjectingObjective faulty(inner, spec);
  int failures = 0;
  const int n = 1000;
  for (int i = 0; i < n; ++i) {
    if (faulty.scheduled_fault(config_at(0.0007 * i, 0.0003 * i), 1)) {
      ++failures;
    }
  }
  EXPECT_GT(failures, n / 10);   // > 10%
  EXPECT_LT(failures, 3 * n / 10);  // < 30%
}

TEST(FaultInjection, RetriesRecoverScheduledTransientFaults) {
  // End-to-end with the resilience layer: find a config whose first
  // attempt is scheduled to fail but whose second is clean, then check the
  // evaluator lands it in 2 attempts with the injected cost accounted.
  testing::FakeObjective inner(testing::fake_space());
  FaultSpec spec;
  spec.failure_rate = 0.4;
  FaultInjectingObjective faulty(inner, spec);
  std::optional<Configuration> pick;
  for (int i = 0; i < 256 && !pick; ++i) {
    const Configuration config = config_at(0.003 * i, 0.7);
    if (faulty.scheduled_fault(config, 1) && !faulty.scheduled_fault(config, 2)) {
      pick = config;
    }
  }
  ASSERT_TRUE(pick.has_value()) << "no 1-fail-then-pass config in probe set";
  RetryPolicy policy;
  policy.backoff_initial_s = 30.0;
  policy.backoff_jitter = 0.0;
  ResilientEvaluator evaluator(faulty, policy, /*seed=*/9);
  const ResilientOutcome outcome = evaluator.evaluate(*pick, nullptr, 0, false);
  EXPECT_FALSE(outcome.failed);
  EXPECT_EQ(outcome.record.attempts, 2u);
  EXPECT_EQ(faulty.injected_failures(), 1u);
  // injected failure (5 s) + backoff (30 s) + real evaluation (10 s).
  EXPECT_DOUBLE_EQ(outcome.record.cost_s, 45.0);
  EXPECT_DOUBLE_EQ(inner.clock().now_s(), 45.0);
}

TEST(FaultInjection, EveryKindWeightZeroRateZeroPassesThroughUntouched) {
  testing::FakeObjective inner(testing::fake_space());
  FaultSpec spec;
  spec.failure_rate = 0.0;
  FaultInjectingObjective faulty(inner, spec);
  const Configuration config = config_at(0.3, 0.7);
  const EvaluationRecord direct = inner.evaluate_detached(config, nullptr);
  const EvaluationRecord wrapped = faulty.evaluate_detached(config, nullptr);
  EXPECT_EQ(direct.test_error, wrapped.test_error);
  EXPECT_EQ(direct.cost_s, wrapped.cost_s);
  EXPECT_EQ(faulty.supports_concurrent_evaluation(),
            inner.supports_concurrent_evaluation());
}

}  // namespace
}  // namespace hp::core
