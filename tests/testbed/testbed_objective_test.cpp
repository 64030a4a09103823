#include "testbed/testbed_objective.hpp"

#include <gtest/gtest.h>

namespace hp::testbed {
namespace {

class TestbedObjectiveTest : public ::testing::Test {
 protected:
  TestbedObjectiveTest()
      : problem_(core::mnist_problem()),
        objective_(problem_, mnist_landscape(), hw::gtx1070(),
                   calibrated_options("mnist", hw::gtx1070())) {}

  core::Configuration converging() const {
    return {50.0, 3.0, 2.0, 400.0, 0.01, 0.85};
  }
  core::Configuration diverging() const {
    return {50.0, 3.0, 2.0, 400.0, 0.1, 0.95};
  }

  core::BenchmarkProblem problem_;
  TestbedObjective objective_;
};

TEST_F(TestbedObjectiveTest, CompletedEvaluationCarriesMeasurements) {
  const auto r = objective_.evaluate(converging(), nullptr);
  EXPECT_EQ(r.status, core::EvaluationStatus::Completed);
  EXPECT_FALSE(r.diverged);
  EXPECT_GT(r.test_error, 0.0);
  EXPECT_LT(r.test_error, 0.1);
  ASSERT_TRUE(r.measured_power_w.has_value());
  EXPECT_GT(*r.measured_power_w, 40.0);
  ASSERT_TRUE(r.measured_memory_mb.has_value());  // GTX has the counter
  EXPECT_GT(r.cost_s, 60.0);
}

TEST_F(TestbedObjectiveTest, ClockAdvancesByCost) {
  const double before = objective_.clock().now_s();
  const auto r = objective_.evaluate(converging(), nullptr);
  EXPECT_NEAR(objective_.clock().now_s() - before, r.cost_s, 1e-9);
}

TEST_F(TestbedObjectiveTest, EarlyTerminationCatchesDivergers) {
  const core::EarlyTerminationRule rule;
  const auto r = objective_.evaluate(diverging(), &rule);
  EXPECT_EQ(r.status, core::EvaluationStatus::EarlyTerminated);
  EXPECT_TRUE(r.diverged);
  EXPECT_GE(r.test_error, 0.8);
  // Cost is a small fraction of a full training.
  const double full =
      objective_.training_time_s(problem_.to_cnn_spec(diverging()));
  EXPECT_LT(r.cost_s, full * 0.25);
  // No measurement happens for discarded candidates.
  EXPECT_FALSE(r.measured_power_w.has_value());
}

TEST_F(TestbedObjectiveTest, EarlyTerminationSparesConvergers) {
  const core::EarlyTerminationRule rule;
  const auto r = objective_.evaluate(converging(), &rule);
  EXPECT_EQ(r.status, core::EvaluationStatus::Completed);
}

TEST_F(TestbedObjectiveTest, ExhaustiveModePaysFullCostForDivergers) {
  const auto r = objective_.evaluate(diverging(), nullptr);
  EXPECT_EQ(r.status, core::EvaluationStatus::Completed);
  EXPECT_TRUE(r.diverged);
  EXPECT_GE(r.cost_s,
            objective_.training_time_s(problem_.to_cnn_spec(diverging())));
}

TEST_F(TestbedObjectiveTest, TrainingTimeScalesWithWorkload) {
  const core::Configuration small{20.0, 2.0, 3.0, 200.0, 0.01, 0.85};
  const core::Configuration large{80.0, 5.0, 1.0, 700.0, 0.01, 0.85};
  EXPECT_GT(objective_.training_time_s(problem_.to_cnn_spec(large)),
            objective_.training_time_s(problem_.to_cnn_spec(small)) * 2.0);
}

TEST_F(TestbedObjectiveTest, MeasureMatchesSimulatorGroundTruth) {
  const auto m = objective_.measure(converging());
  const nn::CnnSpec spec = problem_.to_cnn_spec(converging());
  const double truth =
      hw::CostModel(hw::gtx1070()).evaluate(spec).average_power_w;
  EXPECT_NEAR(m.power_w, truth, truth * 0.02);
  ASSERT_TRUE(m.memory_mb.has_value());
}

TEST_F(TestbedObjectiveTest, MeasurementIsReplayPure) {
  // A measurement is a pure function of (seeds, spec): evaluating other
  // configurations in between must not shift the sensor streams — the
  // property journal replay (which skips already-evaluated networks)
  // depends on.
  const auto first = objective_.evaluate(converging(), nullptr);
  const core::Configuration other{30.0, 5.0, 1.0, 200.0, 0.01, 0.85};
  (void)objective_.evaluate(other, nullptr);
  const auto again = objective_.evaluate(converging(), nullptr);
  EXPECT_EQ(first.measured_power_w, again.measured_power_w);
  EXPECT_EQ(first.measured_memory_mb, again.measured_memory_mb);
}

TEST_F(TestbedObjectiveTest, SequentialAndDetachedMeasurementsAgree) {
  const auto sequential = objective_.evaluate(converging(), nullptr);
  const auto detached = objective_.evaluate_detached(converging(), nullptr);
  EXPECT_EQ(sequential.measured_power_w, detached.measured_power_w);
  EXPECT_EQ(sequential.measured_memory_mb, detached.measured_memory_mb);
  EXPECT_EQ(sequential.test_error, detached.test_error);
  EXPECT_EQ(sequential.cost_s, detached.cost_s);
}

TEST_F(TestbedObjectiveTest, SensorFallbackPredictsAndFlagsUnmeasured) {
  TestbedOptions opt = calibrated_options("mnist", hw::gtx1070());
  opt.sensor_faults.failure_rate = 1.0;  // every read fails
  opt.sensor_faults.fail_memory = true;
  opt.sensor_fallback_after = 2;
  TestbedObjective faulty(problem_, mnist_landscape(), hw::gtx1070(), opt);
  // No fallback model installed: the dark sensor is a transient error the
  // resilience layer would retry.
  EXPECT_THROW((void)faulty.evaluate(converging(), nullptr), hw::SensorError);
  const core::HardwareModel power(core::ModelForm::Linear,
                                  linalg::Vector{0.5, 1.0, -1.0, 0.02}, 40.0,
                                  2.0);
  const core::HardwareModel memory(core::ModelForm::Linear,
                                   linalg::Vector{2.0, 5.0, -3.0, 0.5}, 500.0,
                                   20.0);
  faulty.set_fallback_models(&power, &memory);
  const auto r = faulty.evaluate(converging(), nullptr);
  EXPECT_EQ(r.status, core::EvaluationStatus::Completed);
  EXPECT_FALSE(r.measured);
  const nn::CnnSpec spec = problem_.to_cnn_spec(converging());
  const std::vector<double> z = spec.structural_vector();
  ASSERT_TRUE(r.measured_power_w.has_value());
  EXPECT_DOUBLE_EQ(*r.measured_power_w, power.predict(z));
  ASSERT_TRUE(r.measured_memory_mb.has_value());
  EXPECT_DOUBLE_EQ(*r.measured_memory_mb, memory.predict(z));
}

TEST_F(TestbedObjectiveTest, IsolatedSensorGlitchesKeepMeasuredFlag) {
  TestbedOptions opt = calibrated_options("mnist", hw::gtx1070());
  opt.sensor_faults.failure_rate = 0.2;
  opt.sensor_fallback_after = 0;  // skip failures, never degrade
  TestbedObjective flaky(problem_, mnist_landscape(), hw::gtx1070(), opt);
  const auto r = flaky.evaluate(converging(), nullptr);
  EXPECT_EQ(r.status, core::EvaluationStatus::Completed);
  EXPECT_TRUE(r.measured);
  ASSERT_TRUE(r.measured_power_w.has_value());
}

TEST_F(TestbedObjectiveTest, RunSeedChangesOutcome) {
  TestbedOptions opt = calibrated_options("mnist", hw::gtx1070());
  opt.run_seed = 999;
  TestbedObjective reseeded(problem_, mnist_landscape(), hw::gtx1070(), opt);
  const auto a = objective_.evaluate(converging(), nullptr);
  const auto b = reseeded.evaluate(converging(), nullptr);
  EXPECT_NE(a.test_error, b.test_error);
}

TEST(TestbedObjectiveCifar, InfeasibleArchitectureCheapAndFlagged) {
  const auto problem = core::cifar10_problem();
  TestbedObjective objective(problem, cifar10_landscape(), hw::gtx1070(),
                             calibrated_options("cifar10", hw::gtx1070()));
  // Three large kernels and max pooling collapse 32x32 to nothing.
  const core::Configuration bad{20, 5, 3, 20, 5, 3, 20, 5, 3,
                                200, 0.01, 0.85, 0.001};
  ASSERT_FALSE(nn::is_feasible(problem.to_cnn_spec(bad)));
  const auto r = objective.evaluate(bad, nullptr);
  EXPECT_EQ(r.status, core::EvaluationStatus::InfeasibleArchitecture);
  EXPECT_LT(r.cost_s, 10.0);
}

TEST(TestbedObjectiveTegra, NoMemoryMeasurementOnTegra) {
  const auto problem = core::mnist_problem();
  TestbedObjective objective(problem, mnist_landscape(), hw::tegra_tx1(),
                             calibrated_options("mnist", hw::tegra_tx1()));
  const core::Configuration c{50.0, 3.0, 2.0, 400.0, 0.01, 0.85};
  const auto r = objective.evaluate(c, nullptr);
  ASSERT_TRUE(r.measured_power_w.has_value());
  EXPECT_LT(*r.measured_power_w, 16.0);  // Tegra envelope
  EXPECT_FALSE(r.measured_memory_mb.has_value());
}

TEST(TestbedCalibration, PaperWallClockRegime) {
  // Exhaustive random search should land near the paper's ~14 samples in
  // 2 hours on MNIST (Table 4); we check the mean full-training cost is in
  // the right ballpark (several minutes).
  const auto problem = core::mnist_problem();
  TestbedObjective objective(problem, mnist_landscape(), hw::gtx1070(),
                             calibrated_options("mnist", hw::gtx1070()));
  stats::Rng rng(3);
  double total = 0.0;
  int n = 0;
  for (int i = 0; i < 100; ++i) {
    const nn::CnnSpec spec = problem.to_cnn_spec(problem.space().sample(rng));
    if (!nn::is_feasible(spec)) continue;
    total += objective.training_time_s(spec);
    ++n;
  }
  const double mean_s = total / n;
  EXPECT_GT(mean_s, 150.0);
  EXPECT_LT(mean_s, 900.0);
}

TEST(TestbedOptions, ValidatesBaseTime) {
  TestbedOptions opt;
  opt.base_training_time_s = 0.0;
  EXPECT_THROW(TestbedObjective(core::mnist_problem(), mnist_landscape(),
                                hw::gtx1070(), opt),
               std::invalid_argument);
}

TEST(TestbedOptions, CalibratedOptionsDifferByDeviceAndDataset) {
  const auto mnist_gtx = calibrated_options("mnist", hw::gtx1070());
  const auto cifar_gtx = calibrated_options("cifar10", hw::gtx1070());
  const auto mnist_tx1 = calibrated_options("mnist", hw::tegra_tx1());
  EXPECT_GT(cifar_gtx.base_training_time_s, mnist_gtx.base_training_time_s);
  EXPECT_GT(mnist_tx1.base_training_time_s, mnist_gtx.base_training_time_s);
}

}  // namespace
}  // namespace hp::testbed
