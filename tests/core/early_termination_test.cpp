#include "core/early_termination.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace hp::core {
namespace {

TEST(EarlyTermination, ValidatesConstruction) {
  EXPECT_THROW(EarlyTerminationRule(0), std::invalid_argument);
  EXPECT_THROW(EarlyTerminationRule(2, 0.0), std::invalid_argument);
  EXPECT_THROW(EarlyTerminationRule(2, 1.5), std::invalid_argument);
  EXPECT_THROW(EarlyTerminationRule(2, 0.9, 1.0), std::invalid_argument);
  EXPECT_THROW(EarlyTerminationRule(2, 0.9, -0.1), std::invalid_argument);
}

TEST(EarlyTermination, NeverFiresBeforeObservationWindow) {
  const EarlyTerminationRule rule(3, 0.9, 0.05);
  EXPECT_FALSE(rule.should_terminate(1, 0.9));
  EXPECT_FALSE(rule.should_terminate(2, 0.95));
}

TEST(EarlyTermination, FiresOnChanceLevelErrorAfterWindow) {
  const EarlyTerminationRule rule(2, 0.9, 0.05);
  EXPECT_TRUE(rule.should_terminate(2, 0.9));
  EXPECT_TRUE(rule.should_terminate(2, 0.88));  // within margin of chance
  EXPECT_TRUE(rule.should_terminate(5, 0.91));
}

TEST(EarlyTermination, SparesConvergingRuns) {
  const EarlyTerminationRule rule(2, 0.9, 0.05);
  EXPECT_FALSE(rule.should_terminate(2, 0.6));
  EXPECT_FALSE(rule.should_terminate(10, 0.02));
}

TEST(EarlyTermination, ThresholdMatchesMargin) {
  const EarlyTerminationRule rule(2, 0.9, 0.05);
  EXPECT_DOUBLE_EQ(rule.convergence_threshold(), 0.9 * 0.95);
  // Just below threshold: converging; at threshold: terminated.
  EXPECT_FALSE(rule.should_terminate(3, 0.9 * 0.95 - 1e-9));
  EXPECT_TRUE(rule.should_terminate(3, 0.9 * 0.95));
}

TEST(EarlyTermination, AccessorsReportConstruction) {
  const EarlyTerminationRule rule(4, 0.5, 0.1);
  EXPECT_EQ(rule.check_after_epochs(), 4u);
  EXPECT_DOUBLE_EQ(rule.chance_error(), 0.5);
}

TEST(EarlyTermination, DefaultRuleMatchesTenClassChance) {
  EXPECT_DOUBLE_EQ(kEarlyTermination.chance_error(), 0.9);
  EXPECT_EQ(kEarlyTermination.check_after_epochs(), 2u);
  EXPECT_DOUBLE_EQ(kEarlyTermination.convergence_threshold(), 0.9 * 0.95);
}

}  // namespace
}  // namespace hp::core
