#pragma once
// Dense row-major matrix for the small/medium problems that appear in GP
// regression and least-squares model fitting.

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <span>
#include <vector>

#include "core/contracts.hpp"
#include "linalg/vector.hpp"

namespace hp::linalg {

/// Dense row-major matrix of doubles with checked access.
class Matrix {
 public:
  Matrix() = default;
  /// Zero-initialized @p rows x @p cols matrix.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}
  /// @p rows x @p cols matrix with every entry set to @p fill.
  Matrix(std::size_t rows, std::size_t cols, double fill)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}
  /// Construct from nested initializer lists; throws std::invalid_argument
  /// if the rows are ragged.
  Matrix(std::initializer_list<std::initializer_list<double>> init);

  [[nodiscard]] static Matrix identity(std::size_t n);
  /// Diagonal matrix with @p diag on the main diagonal.
  [[nodiscard]] static Matrix diagonal(const Vector& diag);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }
  [[nodiscard]] bool square() const noexcept { return rows_ == cols_; }

  /// Element access; bounds are an HP_BOUNDS contract (checked builds
  /// throw hp::core::ContractViolation, Release is unchecked). Defined here
  /// so the Cholesky, solve and Gram inner loops inline them.
  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) {
    HP_BOUNDS(r, rows_);
    HP_BOUNDS(c, cols_);
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const {
    HP_BOUNDS(r, rows_);
    HP_BOUNDS(c, cols_);
    return data_[r * cols_ + c];
  }

  [[nodiscard]] const std::vector<double>& raw() const noexcept { return data_; }

  /// View of row @p r over the row-major storage (no copy). Bounds are an
  /// HP_BOUNDS contract like operator(); the span is invalidated by any
  /// mutation of the matrix.
  [[nodiscard]] std::span<const double> row_span(std::size_t r) const {
    HP_BOUNDS(r, rows_);
    return std::span<const double>(data_.data() + r * cols_, cols_);
  }

  /// Copy of row @p r as a Vector.
  [[nodiscard]] Vector row(std::size_t r) const;
  /// Copy of column @p c as a Vector.
  [[nodiscard]] Vector col(std::size_t c) const;
  void set_row(std::size_t r, const Vector& v);

  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double s) noexcept;

  /// Transposed copy.
  [[nodiscard]] Matrix transposed() const;

  /// Adds @p value to each diagonal entry (jitter / ridge regularization).
  void add_to_diagonal(double value);

  /// Frobenius norm.
  [[nodiscard]] double frobenius_norm() const noexcept;

  /// Maximum absolute entry.
  [[nodiscard]] double max_abs() const noexcept;

  /// True if max |A - A^T| entry is <= tol. Requires a square matrix.
  [[nodiscard]] bool is_symmetric(double tol = 1e-12) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

[[nodiscard]] Matrix operator+(Matrix lhs, const Matrix& rhs);
[[nodiscard]] Matrix operator-(Matrix lhs, const Matrix& rhs);
[[nodiscard]] Matrix operator*(Matrix lhs, double s);
[[nodiscard]] Matrix operator*(double s, Matrix rhs);

/// Matrix-matrix product; compatible shapes are an HP_REQUIRE contract.
[[nodiscard]] Matrix operator*(const Matrix& a, const Matrix& b);

/// Matrix-vector product; compatible shapes are an HP_REQUIRE contract.
[[nodiscard]] Vector operator*(const Matrix& a, const Vector& x);

/// A^T * A (Gram matrix), computed directly to exploit symmetry.
[[nodiscard]] Matrix gram(const Matrix& a);

/// A^T * y; compatible shapes are an HP_REQUIRE contract.
[[nodiscard]] Vector transposed_times(const Matrix& a, const Vector& y);

/// Maximum absolute entry-wise difference between equal-shaped matrices.
[[nodiscard]] double max_abs_diff(const Matrix& a, const Matrix& b);

std::ostream& operator<<(std::ostream& os, const Matrix& m);

}  // namespace hp::linalg
