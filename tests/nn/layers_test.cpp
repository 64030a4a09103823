#include "nn/layers.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/pooling.hpp"
#include "nn/softmax.hpp"

namespace hp::nn {
namespace {

/// Element (n, c, h, w) of a tensor's row-major storage.
float& at(Tensor& t, std::size_t n, std::size_t c, std::size_t h,
          std::size_t w) {
  const Shape& s = t.shape();
  return t.flat()[((n * s.c + c) * s.h + h) * s.w + w];
}

/// Learnable scalars of @p layer.
std::size_t parameter_count(Layer& layer) {
  std::size_t total = 0;
  for (const Parameter* p : layer.parameters()) total += p->value.size();
  return total;
}

TEST(Relu, ForwardClampsNegatives) {
  ReluLayer relu;
  Tensor in({1, 1, 1, 4});
  at(in, 0, 0, 0, 0) = -1.0F;
  at(in, 0, 0, 0, 1) = 0.0F;
  at(in, 0, 0, 0, 2) = 2.0F;
  at(in, 0, 0, 0, 3) = -0.5F;
  Tensor out;
  relu.forward(in, out);
  EXPECT_EQ(at(out, 0, 0, 0, 0), 0.0F);
  EXPECT_EQ(at(out, 0, 0, 0, 1), 0.0F);
  EXPECT_EQ(at(out, 0, 0, 0, 2), 2.0F);
  EXPECT_EQ(at(out, 0, 0, 0, 3), 0.0F);
}

TEST(Relu, BackwardMasksGradient) {
  ReluLayer relu;
  Tensor in({1, 1, 1, 2});
  at(in, 0, 0, 0, 0) = -1.0F;
  at(in, 0, 0, 0, 1) = 1.0F;
  Tensor out;
  relu.forward(in, out);
  Tensor go({1, 1, 1, 2});
  go.fill(1.0F);
  Tensor gi;
  relu.backward(in, go, gi);
  EXPECT_EQ(at(gi, 0, 0, 0, 0), 0.0F);
  EXPECT_EQ(at(gi, 0, 0, 0, 1), 1.0F);
}

TEST(Conv2d, RejectsZeroDimensions) {
  EXPECT_THROW(Conv2dLayer(0, 1, 1), std::invalid_argument);
  EXPECT_THROW(Conv2dLayer(1, 0, 1), std::invalid_argument);
  EXPECT_THROW(Conv2dLayer(1, 1, 0), std::invalid_argument);
}

TEST(Conv2d, OutputShapeValidPadding) {
  Conv2dLayer conv(3, 8, 3);
  const Shape out = conv.output_shape({4, 3, 10, 12});
  EXPECT_EQ(out, (Shape{4, 8, 8, 10}));
}

TEST(Conv2d, ChannelMismatchThrows) {
  Conv2dLayer conv(3, 8, 3);
  EXPECT_THROW((void)conv.output_shape({1, 2, 10, 10}), std::invalid_argument);
}

TEST(Conv2d, InputSmallerThanKernelThrows) {
  Conv2dLayer conv(1, 1, 5);
  EXPECT_THROW((void)conv.output_shape({1, 1, 4, 4}), std::invalid_argument);
}

TEST(Conv2d, KnownConvolutionResult) {
  // 1x1 input channel, 2x2 kernel of ones, bias 0: output = window sums.
  Conv2dLayer conv(1, 1, 2);
  for (Parameter* p : conv.parameters()) p->value.fill(0.0F);
  conv.parameters()[0]->value.fill(1.0F);  // weights
  Tensor in({1, 1, 3, 3});
  float v = 1.0F;
  for (std::size_t h = 0; h < 3; ++h) {
    for (std::size_t w = 0; w < 3; ++w) at(in, 0, 0, h, w) = v++;
  }
  Tensor out;
  conv.forward(in, out);
  // Windows: (1+2+4+5)=12, (2+3+5+6)=16, (4+5+7+8)=24, (5+6+8+9)=28.
  EXPECT_FLOAT_EQ(at(out, 0, 0, 0, 0), 12.0F);
  EXPECT_FLOAT_EQ(at(out, 0, 0, 0, 1), 16.0F);
  EXPECT_FLOAT_EQ(at(out, 0, 0, 1, 0), 24.0F);
  EXPECT_FLOAT_EQ(at(out, 0, 0, 1, 1), 28.0F);
}

TEST(Conv2d, BiasAddsToAllOutputs) {
  Conv2dLayer conv(1, 2, 2);
  conv.parameters()[0]->value.fill(0.0F);
  at(conv.parameters()[1]->value, 0, 1, 0, 0) = 3.0F;  // bias of filter 1
  Tensor in({1, 1, 2, 2});
  Tensor out;
  conv.forward(in, out);
  EXPECT_FLOAT_EQ(at(out, 0, 0, 0, 0), 0.0F);
  EXPECT_FLOAT_EQ(at(out, 0, 1, 0, 0), 3.0F);
}

TEST(Conv2d, ForwardMacsFormula) {
  Conv2dLayer conv(3, 8, 2);
  // out 4x(8)x(4)x(4), per output: 3*2*2 macs.
  EXPECT_EQ(conv.forward_macs({4, 3, 5, 5}), 4u * 8u * 4u * 4u * 3u * 2u * 2u);
}

TEST(Conv2d, ParameterCount) {
  Conv2dLayer conv(3, 8, 5);
  EXPECT_EQ(parameter_count(conv), 8u * 3u * 5u * 5u + 8u);
}

TEST(MaxPool, OutputShapeFloors) {
  MaxPoolLayer pool(2);
  EXPECT_EQ(pool.output_shape({1, 3, 5, 7}), (Shape{1, 3, 2, 3}));
}

TEST(MaxPool, KernelOneIsIdentityShape) {
  MaxPoolLayer pool(1);
  EXPECT_EQ(pool.output_shape({1, 2, 4, 4}), (Shape{1, 2, 4, 4}));
}

TEST(MaxPool, SelectsWindowMaximum) {
  MaxPoolLayer pool(2);
  Tensor in({1, 1, 2, 4});
  at(in, 0, 0, 0, 0) = 1.0F;
  at(in, 0, 0, 0, 1) = 5.0F;
  at(in, 0, 0, 1, 0) = 2.0F;
  at(in, 0, 0, 1, 1) = 0.0F;
  at(in, 0, 0, 0, 2) = -3.0F;
  at(in, 0, 0, 0, 3) = -1.0F;
  at(in, 0, 0, 1, 2) = -2.0F;
  at(in, 0, 0, 1, 3) = -9.0F;
  Tensor out;
  pool.forward(in, out);
  EXPECT_FLOAT_EQ(at(out, 0, 0, 0, 0), 5.0F);
  EXPECT_FLOAT_EQ(at(out, 0, 0, 0, 1), -1.0F);
}

TEST(MaxPool, BackwardRoutesGradientToArgmax) {
  MaxPoolLayer pool(2);
  Tensor in({1, 1, 2, 2});
  at(in, 0, 0, 1, 0) = 9.0F;  // winner
  Tensor out;
  pool.forward(in, out);
  Tensor go({1, 1, 1, 1});
  go.fill(2.5F);
  Tensor gi;
  pool.backward(in, go, gi);
  EXPECT_FLOAT_EQ(at(gi, 0, 0, 1, 0), 2.5F);
  EXPECT_FLOAT_EQ(at(gi, 0, 0, 0, 0), 0.0F);
}

TEST(MaxPool, BackwardBeforeForwardThrows) {
  MaxPoolLayer pool(2);
  Tensor in({1, 1, 2, 2});
  Tensor go({1, 1, 1, 1});
  Tensor gi;
  EXPECT_THROW(pool.backward(in, go, gi), std::logic_error);
}

TEST(Dense, KnownAffineResult) {
  DenseLayer dense(2, 2);
  auto params = dense.parameters();
  // W = [[1, 2], [3, 4]], b = [0.5, -0.5].
  params[0]->value.flat()[0] = 1.0F;
  params[0]->value.flat()[1] = 2.0F;
  params[0]->value.flat()[2] = 3.0F;
  params[0]->value.flat()[3] = 4.0F;
  params[1]->value.flat()[0] = 0.5F;
  params[1]->value.flat()[1] = -0.5F;
  Tensor in({1, 2, 1, 1});
  in.flat()[0] = 1.0F;
  in.flat()[1] = 1.0F;
  Tensor out;
  dense.forward(in, out);
  EXPECT_FLOAT_EQ(out.flat()[0], 3.5F);
  EXPECT_FLOAT_EQ(out.flat()[1], 6.5F);
}

TEST(Dense, FlattensArbitraryInputShape) {
  DenseLayer dense(12, 3);
  EXPECT_EQ(dense.output_shape({2, 3, 2, 2}), (Shape{2, 3, 1, 1}));
  EXPECT_THROW((void)dense.output_shape({2, 3, 2, 3}), std::invalid_argument);
}

TEST(Dense, ForwardMacs) {
  DenseLayer dense(10, 4);
  EXPECT_EQ(dense.forward_macs({3, 10, 1, 1}), 3u * 4u * 10u);
}

TEST(Softmax, ProbabilitiesSumToOne) {
  SoftmaxCrossEntropy loss(4);
  Tensor logits({2, 4, 1, 1});
  logits.flat()[0] = 1.0F;
  logits.flat()[5] = 3.0F;
  std::vector<std::uint8_t> labels{0, 1};
  Tensor probs;
  (void)loss.forward(logits, labels, probs);
  for (std::size_t n = 0; n < 2; ++n) {
    float sum = 0.0F;
    for (std::size_t k = 0; k < 4; ++k) sum += probs.item(n)[k];
    EXPECT_NEAR(sum, 1.0F, 1e-5F);
  }
}

TEST(Softmax, UniformLogitsGiveLogKLoss) {
  SoftmaxCrossEntropy loss(10);
  Tensor logits({1, 10, 1, 1});
  std::vector<std::uint8_t> labels{3};
  Tensor probs;
  const double l = loss.forward(logits, labels, probs);
  EXPECT_NEAR(l, std::log(10.0), 1e-6);
}

TEST(Softmax, LabelOutOfRangeThrows) {
  SoftmaxCrossEntropy loss(3);
  Tensor logits({1, 3, 1, 1});
  std::vector<std::uint8_t> labels{3};
  Tensor probs;
  EXPECT_THROW((void)loss.forward(logits, labels, probs),
               std::invalid_argument);
}

TEST(Softmax, AccuracyCountsArgmaxMatches) {
  SoftmaxCrossEntropy loss(3);
  Tensor probs({2, 3, 1, 1});
  probs.item(0)[2] = 0.9F;  // predicts class 2
  probs.item(1)[0] = 0.8F;  // predicts class 0
  std::vector<std::uint8_t> labels{2, 1};
  EXPECT_DOUBLE_EQ(SoftmaxCrossEntropy::accuracy(probs, labels), 0.5);
}

TEST(Softmax, NumericallyStableWithLargeLogits) {
  SoftmaxCrossEntropy loss(2);
  Tensor logits({1, 2, 1, 1});
  logits.flat()[0] = 10000.0F;
  logits.flat()[1] = -10000.0F;
  std::vector<std::uint8_t> labels{0};
  Tensor probs;
  const double l = loss.forward(logits, labels, probs);
  EXPECT_TRUE(std::isfinite(l));
  EXPECT_NEAR(l, 0.0, 1e-6);
}

TEST(Softmax, GradientIsProbMinusOneHotOverBatch) {
  SoftmaxCrossEntropy loss(2);
  Tensor logits({2, 2, 1, 1});
  std::vector<std::uint8_t> labels{0, 1};
  Tensor probs;
  (void)loss.forward(logits, labels, probs);
  Tensor grad;
  loss.backward(probs, labels, grad);
  EXPECT_NEAR(grad.item(0)[0], (0.5F - 1.0F) / 2.0F, 1e-6F);
  EXPECT_NEAR(grad.item(0)[1], 0.5F / 2.0F, 1e-6F);
  EXPECT_NEAR(grad.item(1)[1], (0.5F - 1.0F) / 2.0F, 1e-6F);
}

}  // namespace
}  // namespace hp::nn
