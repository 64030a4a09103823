#include "linalg/matrix.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/contracts.hpp"

namespace hp::linalg {
namespace {

TEST(Matrix, ZeroInitialized) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m(1, 2), 0.0);
}

TEST(Matrix, NestedInitializerList) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m(0, 1), 2.0);
  EXPECT_EQ(m(1, 0), 3.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

#if HP_CONTRACTS
TEST(Matrix, OutOfRangeViolatesContract) {
  Matrix m(2, 2);
  EXPECT_THROW((void)m(2, 0), core::ContractViolation);
  EXPECT_THROW((void)m(0, 2), core::ContractViolation);
}
#endif

TEST(Matrix, RowExtraction) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  const Vector r = m.row(1);
  EXPECT_EQ(r[0], 3.0);
  EXPECT_EQ(r[1], 4.0);
}

TEST(Matrix, MatrixProduct) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  const Matrix p = a * b;
  EXPECT_EQ(p(0, 0), 19.0);
  EXPECT_EQ(p(0, 1), 22.0);
  EXPECT_EQ(p(1, 0), 43.0);
  EXPECT_EQ(p(1, 1), 50.0);
}

#if HP_CONTRACTS
TEST(Matrix, ProductInnerDimensionMismatchViolatesContract) {
  Matrix a(2, 3);
  Matrix b(2, 2);
  EXPECT_THROW((void)(a * b), core::ContractViolation);
}
#endif

TEST(Matrix, Transposed) {
  Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Matrix t = a.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_EQ(t(2, 1), 6.0);
}

TEST(Matrix, AddToDiagonal) {
  Matrix m(2, 2);
  m.add_to_diagonal(3.0);
  EXPECT_EQ(m(0, 0), 3.0);
  EXPECT_EQ(m(1, 1), 3.0);
  EXPECT_EQ(m(0, 1), 0.0);
}

TEST(Matrix, IsSymmetric) {
  Matrix s{{1.0, 2.0}, {2.0, 3.0}};
  EXPECT_TRUE(s.is_symmetric());
  Matrix ns{{1.0, 2.0}, {2.5, 3.0}};
  EXPECT_FALSE(ns.is_symmetric());
  Matrix rect(2, 3);
  EXPECT_FALSE(rect.is_symmetric());
}

TEST(Matrix, MaxAbs) {
  Matrix m{{-7.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m.max_abs(), 7.0);
}

}  // namespace
}  // namespace hp::linalg
