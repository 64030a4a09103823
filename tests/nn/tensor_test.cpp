#include "nn/tensor.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace hp::nn {
namespace {

TEST(Shape, CountAndPerItem) {
  Shape s{2, 3, 4, 5};
  EXPECT_EQ(s.count(), 120u);
  EXPECT_EQ(s.per_item(), 60u);
}

TEST(Shape, Equality) {
  EXPECT_EQ((Shape{1, 2, 3, 4}), (Shape{1, 2, 3, 4}));
  EXPECT_NE((Shape{1, 2, 3, 4}), (Shape{1, 2, 4, 3}));
}

TEST(Tensor, DefaultIsEmpty) {
  Tensor t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
}

TEST(Tensor, ZeroInitialized) {
  Tensor t({1, 2, 2, 2});
  for (float x : t.flat()) EXPECT_EQ(x, 0.0F);
}

TEST(Tensor, ItemPointsToBatchSlice) {
  Tensor t({2, 1, 2, 2});
  t.flat()[4] = 5.0F;
  EXPECT_EQ(t.item(1)[0], 5.0F);
  EXPECT_EQ(t.item(0)[0], 0.0F);
}

TEST(Tensor, FillAndReshape) {
  Tensor t({1, 1, 2, 2});
  t.fill(3.0F);
  EXPECT_EQ(t.flat()[3], 3.0F);
  t.reshape({1, 2, 1, 1});
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.flat()[1], 0.0F);  // reshape zero-fills
}

TEST(Tensor, HasNonFiniteDetectsNanAndInf) {
  Tensor t({1, 1, 1, 3});
  EXPECT_FALSE(t.has_non_finite());
  t.flat()[1] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(t.has_non_finite());
  t.flat()[1] = std::numeric_limits<float>::infinity();
  EXPECT_TRUE(t.has_non_finite());
}

}  // namespace
}  // namespace hp::nn
