#include "hw/cost_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace hp::hw {
namespace {

nn::CnnSpec mnist_like(std::size_t features = 40, std::size_t kernel = 3,
                       std::size_t pool = 2, std::size_t units = 400) {
  nn::CnnSpec spec;
  spec.input = {1, 1, 28, 28};
  spec.conv_stages = {{features, kernel, pool}};
  spec.dense_stages = {{units}};
  spec.num_classes = 10;
  return spec;
}

TEST(CostModel, ValidatesOptionsAndDevice) {
  CostModelOptions opt;
  opt.batch_size = 0;
  EXPECT_THROW(CostModel(gtx1070(), opt), std::invalid_argument);
  DeviceSpec bad = gtx1070();
  bad.fp32_tflops = 0.0;
  EXPECT_THROW(CostModel{bad}, std::invalid_argument);
}

TEST(CostModel, DeterministicEvaluation) {
  const CostModel cm(gtx1070());
  const auto a = cm.evaluate(mnist_like());
  const auto b = cm.evaluate(mnist_like());
  EXPECT_EQ(a.average_power_w, b.average_power_w);
  EXPECT_EQ(a.memory_mb, b.memory_mb);
  EXPECT_EQ(a.latency_ms, b.latency_ms);
}

TEST(CostModel, PowerWithinDeviceEnvelope) {
  for (const DeviceSpec& dev : all_devices()) {
    const CostModel cm(dev);
    const auto cost = cm.evaluate(mnist_like());
    EXPECT_GE(cost.average_power_w, dev.idle_power_w * 0.8) << dev.name;
    EXPECT_LE(cost.average_power_w, dev.tdp_w * 1.05) << dev.name;
  }
}

TEST(CostModel, MoreFeaturesMorePower) {
  const CostModel cm(gtx1070());
  const double p20 = cm.evaluate(mnist_like(20)).average_power_w;
  const double p80 = cm.evaluate(mnist_like(80)).average_power_w;
  EXPECT_GT(p80, p20);
}

TEST(CostModel, MoreUnitsMoreMemory) {
  const CostModel cm(gtx1070());
  const double m200 = cm.evaluate(mnist_like(40, 3, 2, 200)).memory_mb;
  const double m700 = cm.evaluate(mnist_like(40, 3, 2, 700)).memory_mb;
  EXPECT_GT(m700, m200);
}

TEST(CostModel, PoolingReducesMemory) {
  const CostModel cm(gtx1070());
  const double pooled = cm.evaluate(mnist_like(40, 3, 3)).memory_mb;
  const double unpooled = cm.evaluate(mnist_like(40, 3, 1)).memory_mb;
  EXPECT_GT(unpooled, pooled);
}

TEST(CostModel, PowerDemandAdditiveInStages) {
  const CostModel cm(gtx1070());
  nn::CnnSpec one = mnist_like();
  nn::CnnSpec two = mnist_like();
  two.input = {1, 1, 28, 28};
  two.conv_stages.push_back({30, 3, 2});
  EXPECT_GT(cm.power_demand(two), cm.power_demand(one));
}

TEST(CostModel, DepthAttenuationDeviceDependent) {
  // The same deep network draws relatively more on the embedded part.
  nn::CnnSpec deep;
  deep.input = {1, 3, 32, 32};
  deep.conv_stages = {{40, 3, 2}, {40, 3, 2}, {40, 3, 1}};
  deep.dense_stages = {{300}};
  deep.num_classes = 10;
  nn::CnnSpec shallow;
  shallow.input = {1, 3, 32, 32};
  shallow.conv_stages = {{40, 3, 2}};
  shallow.dense_stages = {{300}};
  shallow.num_classes = 10;

  const CostModel server(gtx1070());
  const CostModel embedded(tegra_tx1());
  const double server_ratio =
      server.power_demand(deep) / server.power_demand(shallow);
  const double embedded_ratio =
      embedded.power_demand(deep) / embedded.power_demand(shallow);
  EXPECT_GT(embedded_ratio, server_ratio);
}

TEST(CostModel, LatencyPositiveAndScalesWithWork) {
  const CostModel cm(tegra_tx1());
  const double small = cm.evaluate(mnist_like(20, 2, 3, 200)).latency_ms;
  const double large = cm.evaluate(mnist_like(80, 5, 1, 700)).latency_ms;
  EXPECT_GT(small, 0.0);
  EXPECT_GT(large, small);
}

TEST(CostModel, EmbeddedSlowerThanServer) {
  const auto spec = mnist_like();
  const double server = CostModel(gtx1070()).evaluate(spec).latency_ms;
  const double embedded = CostModel(tegra_tx1()).evaluate(spec).latency_ms;
  EXPECT_GT(embedded, server);
}

TEST(CostModel, MemoryIncludesRuntimeOverhead) {
  const DeviceSpec dev = gtx1070();
  const CostModel cm(dev);
  EXPECT_GT(cm.evaluate(mnist_like()).memory_mb, dev.runtime_overhead_mb * 0.9);
}

TEST(CostModel, MemoryRoundedToAllocatorGranularity) {
  CostModelOptions opt;
  opt.allocator_granularity_mb = 2.0;
  opt.systematic_deviation_sd = 0.0;  // disable noise to observe rounding
  const CostModel cm(gtx1070(), opt);
  const double mem = cm.evaluate(mnist_like()).memory_mb;
  EXPECT_NEAR(std::fmod(mem, 2.0), 0.0, 1e-9);
}

TEST(CostModel, HashSpecSensitiveToEveryStructuralField) {
  const auto base = CostModel::hash_spec(mnist_like());
  EXPECT_NE(base, CostModel::hash_spec(mnist_like(41)));
  EXPECT_NE(base, CostModel::hash_spec(mnist_like(40, 4)));
  EXPECT_NE(base, CostModel::hash_spec(mnist_like(40, 3, 3)));
  EXPECT_NE(base, CostModel::hash_spec(mnist_like(40, 3, 2, 401)));
}

TEST(CostModel, SystematicDeviationDiffersAcrossDevices) {
  const auto spec = mnist_like();
  CostModelOptions opt;
  opt.systematic_deviation_sd = 0.05;
  const double a = CostModel(gtx1070(), opt).evaluate(spec).average_power_w /
                   gtx1070().tdp_w;
  const double b =
      CostModel(gtx1080ti(), opt).evaluate(spec).average_power_w /
      gtx1080ti().tdp_w;
  EXPECT_NE(a, b);  // different deviation streams per device
}

TEST(CostModel, UtilizationInUnitRange) {
  for (const DeviceSpec& dev : all_devices()) {
    const CostModel cm(dev);
    const double u = cm.evaluate(mnist_like(80, 5, 1, 700)).utilization;
    EXPECT_GT(u, 0.0) << dev.name;
    EXPECT_LT(u, 1.0) << dev.name;
  }
}

TEST(CostModel, InfeasibleSpecThrows) {
  nn::CnnSpec bad;
  bad.input = {1, 1, 6, 6};
  bad.conv_stages = {{4, 5, 3}, {4, 5, 1}};
  bad.num_classes = 10;
  const CostModel cm(gtx1070());
  EXPECT_THROW((void)cm.evaluate(bad), std::invalid_argument);
}

}  // namespace
}  // namespace hp::hw
