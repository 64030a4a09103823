#include "nn/network.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "stats/rng.hpp"

namespace hp::nn {
namespace {

/// Learnable scalars of @p net.
std::size_t parameter_count(Network& net) {
  std::size_t total = 0;
  for (const Parameter* p : net.parameters()) total += p->value.size();
  return total;
}

/// Sum of squares of every parameter gradient of @p net.
double gradient_squared_norm(Network& net) {
  double norm = 0.0;
  for (const Parameter* p : net.parameters()) {
    for (float g : p->gradient.flat()) {
      norm += static_cast<double>(g) * static_cast<double>(g);
    }
  }
  return norm;
}

CnnSpec small_spec() {
  CnnSpec spec;
  spec.input = {1, 1, 12, 12};
  spec.conv_stages = {{6, 3, 2}};
  spec.dense_stages = {{16}};
  spec.num_classes = 10;
  return spec;
}

TEST(CnnSpec, StructuralVectorLayout) {
  CnnSpec spec;
  spec.conv_stages = {{20, 3, 2}, {40, 5, 1}};
  spec.dense_stages = {{300}};
  const auto z = spec.structural_vector();
  ASSERT_EQ(z.size(), 7u);
  EXPECT_EQ(z[0], 20.0);
  EXPECT_EQ(z[1], 3.0);
  EXPECT_EQ(z[2], 2.0);
  EXPECT_EQ(z[3], 40.0);
  EXPECT_EQ(z[4], 5.0);
  EXPECT_EQ(z[5], 1.0);
  EXPECT_EQ(z[6], 300.0);
}

TEST(CnnSpec, ToStringMentionsStages) {
  const std::string s = small_spec().to_string();
  EXPECT_NE(s.find("conv3x3x6"), std::string::npos);
  EXPECT_NE(s.find("fc16"), std::string::npos);
  EXPECT_NE(s.find("softmax10"), std::string::npos);
}

TEST(BuildNetwork, ProducesTrainableNetwork) {
  Network net = build_network(small_spec());
  EXPECT_GT(net.num_layers(), 3u);
  EXPECT_GT(parameter_count(net), 0u);
}

TEST(BuildNetwork, RejectsCollapsedSpatialDims) {
  CnnSpec spec;
  spec.input = {1, 1, 6, 6};
  spec.conv_stages = {{4, 5, 3}, {4, 5, 1}};  // 6->2->0 collapses
  spec.num_classes = 10;
  EXPECT_THROW((void)build_network(spec), std::invalid_argument);
  EXPECT_FALSE(is_feasible(spec));
}

TEST(BuildNetwork, RejectsTooFewClasses) {
  CnnSpec spec = small_spec();
  spec.num_classes = 1;
  EXPECT_THROW((void)build_network(spec), std::invalid_argument);
}

TEST(ComputeWorkload, MatchesBuiltNetworkParameterCount) {
  for (const CnnSpec& spec :
       {small_spec(),
        CnnSpec{{1, 3, 16, 16}, {{8, 3, 2}, {12, 2, 2}}, {{32}}, 10},
        CnnSpec{{1, 1, 28, 28}, {{20, 5, 2}}, {{200}}, 10}}) {
    Network net = build_network(spec);
    const WorkloadSummary w = compute_workload(spec);
    EXPECT_EQ(w.total_weights, parameter_count(net)) << spec.to_string();
  }
}

TEST(ComputeWorkload, LayersAndTotalsConsistent) {
  const WorkloadSummary w = compute_workload(small_spec());
  std::size_t macs = 0, weights = 0, acts = 0, peak = 0;
  for (const LayerWorkload& l : w.layers) {
    macs += l.macs;
    weights += l.weight_count;
    acts += l.activation_count;
    peak = std::max(peak, l.activation_count);
  }
  EXPECT_EQ(w.total_macs, macs);
  EXPECT_EQ(w.total_weights, weights);
  EXPECT_EQ(w.total_activations, acts);
  EXPECT_EQ(w.peak_activations, peak);
}

TEST(ComputeWorkload, ConvMacsHandComputed) {
  CnnSpec spec;
  spec.input = {1, 1, 5, 5};
  spec.conv_stages = {{2, 2, 1}};  // out 4x4, patch 1*2*2
  spec.dense_stages = {};
  spec.num_classes = 2;
  const WorkloadSummary w = compute_workload(spec);
  // conv macs = 2 features * 16 pixels * 4 patch = 128.
  EXPECT_EQ(w.layers[0].macs, 128u);
  // classifier: 2 classes x (2*4*4 = 32 inputs).
  EXPECT_EQ(w.layers.back().macs, 64u);
}

TEST(ComputeWorkload, MoreFeaturesMoreWork) {
  CnnSpec a = small_spec();
  CnnSpec b = small_spec();
  b.conv_stages[0].features = 12;
  EXPECT_GT(compute_workload(b).total_macs, compute_workload(a).total_macs);
  EXPECT_GT(compute_workload(b).total_weights,
            compute_workload(a).total_weights);
}

TEST(Network, ForwardProducesFiniteLoss) {
  Network net = build_network(small_spec());
  stats::Rng rng(3);
  net.initialize(rng);
  Tensor input({4, 1, 12, 12});
  for (float& x : input.flat()) x = static_cast<float>(rng.uniform());
  std::vector<std::uint8_t> labels{0, 1, 2, 3};
  const double loss = net.forward(input, labels);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_GT(loss, 0.0);
}

TEST(Network, BackwardBeforeForwardThrows) {
  Network net = build_network(small_spec());
  Tensor input({1, 1, 12, 12});
  std::vector<std::uint8_t> labels{0};
  EXPECT_THROW(net.backward(input, labels), std::logic_error);
}

TEST(Network, ZeroGradientsClearsAll) {
  Network net = build_network(small_spec());
  stats::Rng rng(4);
  net.initialize(rng);
  Tensor input({2, 1, 12, 12});
  for (float& x : input.flat()) x = static_cast<float>(rng.uniform());
  std::vector<std::uint8_t> labels{0, 1};
  (void)net.forward(input, labels);
  net.backward(input, labels);
  EXPECT_GT(gradient_squared_norm(net), 0.0);
  net.zero_gradients();
  EXPECT_EQ(gradient_squared_norm(net), 0.0);
}

TEST(Network, EvaluateErrorInUnitRange) {
  Network net = build_network(small_spec());
  stats::Rng rng(5);
  net.initialize(rng);
  Tensor input({8, 1, 12, 12});
  for (float& x : input.flat()) x = static_cast<float>(rng.uniform());
  std::vector<std::uint8_t> labels(8, 0);
  const double err = net.evaluate_error(input, labels);
  EXPECT_GE(err, 0.0);
  EXPECT_LE(err, 1.0);
}

TEST(Network, InitializeIsDeterministicPerSeed) {
  Network a = build_network(small_spec());
  Network b = build_network(small_spec());
  stats::Rng ra(7), rb(7);
  a.initialize(ra);
  b.initialize(rb);
  Tensor input({2, 1, 12, 12});
  stats::Rng rin(8);
  for (float& x : input.flat()) x = static_cast<float>(rin.uniform());
  std::vector<std::uint8_t> labels{1, 2};
  EXPECT_DOUBLE_EQ(a.forward(input, labels), b.forward(input, labels));
}

TEST(Network, PoolSizeOneSkipsPooling) {
  CnnSpec with_pool = small_spec();
  CnnSpec no_pool = small_spec();
  no_pool.conv_stages[0].pool_size = 1;
  const auto wp = compute_workload(with_pool);
  const auto np = compute_workload(no_pool);
  // Without pooling the dense layer sees a larger input -> more weights.
  EXPECT_GT(np.total_weights, wp.total_weights);
}

}  // namespace
}  // namespace hp::nn
