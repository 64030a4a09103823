#include "linalg/vector.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/contracts.hpp"

namespace hp::linalg {
namespace {

TEST(Vector, DefaultConstructedIsEmpty) {
  Vector v;
  EXPECT_EQ(v.size(), 0u);
  EXPECT_TRUE(v.empty());
}

TEST(Vector, SizedConstructorZeroInitializes) {
  Vector v(4);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(v[i], 0.0);
}

TEST(Vector, FillConstructor) {
  Vector v(3, 2.5);
  EXPECT_EQ(v[0], 2.5);
  EXPECT_EQ(v[2], 2.5);
}

TEST(Vector, InitializerList) {
  Vector v{1.0, 2.0, 3.0};
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v[1], 2.0);
}

TEST(Vector, FromStdVector) {
  Vector v(std::vector<double>{4.0, 5.0});
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 4.0);
}

#if HP_CONTRACTS
TEST(Vector, OutOfRangeAccessViolatesContract) {
  Vector v(2);
  EXPECT_THROW((void)v[2], core::ContractViolation);
  const Vector& cv = v;
  EXPECT_THROW((void)cv[5], core::ContractViolation);
}
#endif

#if HP_CONTRACTS
TEST(Vector, MismatchedSizesViolateContract) {
  Vector a{1.0};
  Vector b{1.0, 2.0};
  EXPECT_THROW((void)dot(a, b), core::ContractViolation);
}
#endif

TEST(Vector, DotProduct) {
  Vector a{1.0, 2.0, 3.0};
  Vector b{4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
}

TEST(Vector, SumMean) {
  Vector v{1.0, 2.0, 6.0};
  EXPECT_DOUBLE_EQ(v.sum(), 9.0);
  EXPECT_DOUBLE_EQ(v.mean(), 3.0);
}

TEST(Vector, EmptyAggregatesThrow) {
  Vector v;
  EXPECT_THROW((void)v.mean(), std::logic_error);
}

TEST(Vector, RangeForIteration) {
  Vector v{1.0, 2.0, 3.0};
  double sum = 0.0;
  for (double x : v) sum += x;
  EXPECT_DOUBLE_EQ(sum, 6.0);
}

}  // namespace
}  // namespace hp::linalg
