#include "hw/profiler.hpp"

#include <gtest/gtest.h>

#include "hw/sensor.hpp"

namespace hp::hw {
namespace {

nn::CnnSpec make_spec(std::size_t features) {
  nn::CnnSpec spec;
  spec.input = {1, 1, 28, 28};
  spec.conv_stages = {{features, 3, 2}};
  spec.dense_stages = {{300}};
  spec.num_classes = 10;
  return spec;
}

TEST(InferenceProfiler, SampleCarriesStructuralVector) {
  GpuSimulator sim(gtx1070(), 2);
  InferenceProfiler profiler(sim);
  const ProfileSample sample = profiler.profile(make_spec(40));
  ASSERT_EQ(sample.z.size(), 4u);  // features, kernel, pool, units
  EXPECT_EQ(sample.z[0], 40.0);
  EXPECT_GT(sample.power_w, 0.0);
  EXPECT_GT(sample.latency_ms, 0.0);
}

TEST(InferenceProfiler, PowerCloseToGroundTruth) {
  GpuSimulator sim(gtx1070(), 3);
  InferenceProfiler profiler(sim);
  const ProfileSample sample = profiler.profile(make_spec(40));
  const double truth = sim.cost_model().evaluate(make_spec(40)).average_power_w;
  EXPECT_NEAR(sample.power_w, truth, truth * 0.02);
}

TEST(InferenceProfiler, MemoryPresentOnServer) {
  GpuSimulator sim(gtx1070(), 4);
  InferenceProfiler profiler(sim);
  const ProfileSample sample = profiler.profile(make_spec(40));
  ASSERT_TRUE(sample.memory_mb.has_value());
  EXPECT_GT(*sample.memory_mb, 100.0);
}

TEST(InferenceProfiler, MemoryAbsentOnTegra) {
  GpuSimulator sim(tegra_tx1(), 5);
  InferenceProfiler profiler(sim);
  const ProfileSample sample = profiler.profile(make_spec(40));
  EXPECT_FALSE(sample.memory_mb.has_value());
}

TEST(InferenceProfiler, SimulatorLeftIdleAfterProfiling) {
  GpuSimulator sim(gtx1070(), 6);
  InferenceProfiler profiler(sim);
  (void)profiler.profile(make_spec(40));
  EXPECT_FALSE(sim.model_loaded());
}

// The profiler never degrades: failed reads shrink the burst, and only a
// burst in which every read failed throws, as the transient SensorError,
// leaving the simulator idle.
TEST(InferenceProfiler, SensorFailuresShrinkTheBurstUntilEveryReadFails) {
  GpuSimulator sim(gtx1070(), 8);
  InferenceProfiler profiler(sim);
  SensorFaultSpec faults;
  faults.failure_rate = 0.5;
  sim.set_sensor_faults(faults);
  const ProfileSample sample = profiler.profile(make_spec(40));
  const double truth = sim.cost_model().evaluate(make_spec(40)).average_power_w;
  EXPECT_NEAR(sample.power_w, truth, truth * 0.03);
  faults.failure_rate = 1.0;
  sim.set_sensor_faults(faults);
  EXPECT_THROW((void)profiler.profile(make_spec(40)), SensorError);
  EXPECT_FALSE(sim.model_loaded());
}

TEST(InferenceProfiler, ProfileAllSkipsInfeasible) {
  GpuSimulator sim(gtx1070(), 7);
  InferenceProfiler profiler(sim);
  nn::CnnSpec bad;
  bad.input = {1, 1, 6, 6};
  bad.conv_stages = {{4, 5, 3}, {4, 5, 1}};
  bad.num_classes = 10;
  const std::vector<nn::CnnSpec> specs{make_spec(30), bad, make_spec(60)};
  const auto samples = profiler.profile_all(specs);
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].z[0], 30.0);
  EXPECT_EQ(samples[1].z[0], 60.0);
}

TEST(InferenceProfiler, MorePowerForBiggerNetworks) {
  GpuSimulator sim(gtx1070(), 8);
  InferenceProfiler profiler(sim);
  const auto small = profiler.profile(make_spec(20));
  const auto large = profiler.profile(make_spec(80));
  EXPECT_GT(large.power_w, small.power_w);
}

}  // namespace
}  // namespace hp::hw
