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

TEST(Matrix, Identity) {
  const Matrix i = Matrix::identity(3);
  EXPECT_EQ(i(0, 0), 1.0);
  EXPECT_EQ(i(1, 1), 1.0);
  EXPECT_EQ(i(0, 1), 0.0);
}

TEST(Matrix, Diagonal) {
  const Matrix d = Matrix::diagonal(Vector{2.0, 3.0});
  EXPECT_EQ(d(0, 0), 2.0);
  EXPECT_EQ(d(1, 1), 3.0);
  EXPECT_EQ(d(0, 1), 0.0);
}

#if HP_CONTRACTS
TEST(Matrix, OutOfRangeViolatesContract) {
  Matrix m(2, 2);
  EXPECT_THROW((void)m(2, 0), core::ContractViolation);
  EXPECT_THROW((void)m(0, 2), core::ContractViolation);
}
#endif

TEST(Matrix, RowAndColExtraction) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  const Vector r = m.row(1);
  EXPECT_EQ(r[0], 3.0);
  EXPECT_EQ(r[1], 4.0);
  const Vector c = m.col(0);
  EXPECT_EQ(c[0], 1.0);
  EXPECT_EQ(c[1], 3.0);
}

TEST(Matrix, SetRowAndCol) {
  Matrix m(2, 2);
  m.set_row(0, Vector{1.0, 5.0});
  m.set_row(1, Vector{3.0, 6.0});
  EXPECT_EQ(m(0, 0), 1.0);
  const Vector c = m.col(1);
  EXPECT_EQ(c[0], 5.0);
  EXPECT_EQ(c[1], 6.0);
}

#if HP_CONTRACTS
TEST(Matrix, SetRowSizeMismatchViolatesContract) {
  Matrix m(2, 2);
  EXPECT_THROW(m.set_row(0, Vector{1.0}), core::ContractViolation);
}
#endif

TEST(Matrix, AdditionSubtraction) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{1.0, 1.0}, {1.0, 1.0}};
  const Matrix sum = a + b;
  EXPECT_EQ(sum(0, 0), 2.0);
  const Matrix diff = a - b;
  EXPECT_EQ(diff(1, 1), 3.0);
}

#if HP_CONTRACTS
TEST(Matrix, ShapeMismatchViolatesContract) {
  Matrix a(2, 2);
  Matrix b(2, 3);
  EXPECT_THROW(a += b, core::ContractViolation);
  EXPECT_THROW((void)max_abs_diff(a, b), core::ContractViolation);
}
#endif

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

TEST(Matrix, MatrixVectorProduct) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Vector y = a * Vector{1.0, 1.0};
  EXPECT_EQ(y[0], 3.0);
  EXPECT_EQ(y[1], 7.0);
}

TEST(Matrix, Transposed) {
  Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Matrix t = a.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_EQ(t(2, 1), 6.0);
}

TEST(Matrix, GramMatchesExplicitProduct) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  const Matrix g = gram(a);
  const Matrix expected = a.transposed() * a;
  EXPECT_LT(max_abs_diff(g, expected), 1e-12);
}

TEST(Matrix, TransposedTimesVector) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  const Vector y = transposed_times(a, Vector{1.0, 1.0, 1.0});
  EXPECT_EQ(y[0], 9.0);
  EXPECT_EQ(y[1], 12.0);
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

TEST(Matrix, FrobeniusNorm) {
  Matrix m{{3.0, 0.0}, {0.0, 4.0}};
  EXPECT_DOUBLE_EQ(m.frobenius_norm(), 5.0);
}

TEST(Matrix, MaxAbs) {
  Matrix m{{-7.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m.max_abs(), 7.0);
}

}  // namespace
}  // namespace hp::linalg
