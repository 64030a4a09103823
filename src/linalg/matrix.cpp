#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <stdexcept>
#include <string>

#include "core/contracts.hpp"

namespace hp::linalg {

namespace {
// Contract detail string for a shape mismatch; only built on failure.
// [[maybe_unused]]: with HP_CONTRACTS=0 every call site compiles out.
[[maybe_unused]] std::string shape_mismatch(const char* op, const Matrix& a,
                                            const Matrix& b) {
  return std::string("Matrix ") + op + ": shape mismatch (" +
         std::to_string(a.rows()) + "x" + std::to_string(a.cols()) + " vs " +
         std::to_string(b.rows()) + "x" + std::to_string(b.cols()) + ")";
}

[[maybe_unused]] bool same_shape(const Matrix& a,
                                 const Matrix& b) noexcept {
  return a.rows() == b.rows() && a.cols() == b.cols();
}
}  // namespace

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init) {
  rows_ = init.size();
  cols_ = rows_ == 0 ? 0 : init.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : init) {
    if (row.size() != cols_) {
      throw std::invalid_argument("Matrix: ragged initializer list");
    }
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::diagonal(const Vector& diag) {
  Matrix m(diag.size(), diag.size());
  for (std::size_t i = 0; i < diag.size(); ++i) m(i, i) = diag[i];
  return m;
}

Vector Matrix::row(std::size_t r) const {
  HP_BOUNDS(r, rows_);
  Vector v(cols_);
  for (std::size_t c = 0; c < cols_; ++c) v[c] = data_[r * cols_ + c];
  return v;
}

Vector Matrix::col(std::size_t c) const {
  HP_BOUNDS(c, cols_);
  Vector v(rows_);
  for (std::size_t r = 0; r < rows_; ++r) v[r] = data_[r * cols_ + c];
  return v;
}

void Matrix::set_row(std::size_t r, const Vector& v) {
  HP_BOUNDS(r, rows_);
  HP_REQUIRE(v.size() == cols_, "Matrix::set_row: dimension mismatch");
  for (std::size_t c = 0; c < cols_; ++c) data_[r * cols_ + c] = v[c];
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  HP_REQUIRE(same_shape(*this, rhs), shape_mismatch("+=", *this, rhs));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  HP_REQUIRE(same_shape(*this, rhs), shape_mismatch("-=", *this, rhs));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) noexcept {
  for (double& x : data_) x *= s;
  return *this;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      t.data_[c * rows_ + r] = data_[r * cols_ + c];
    }
  }
  return t;
}

void Matrix::add_to_diagonal(double value) {
  const std::size_t n = std::min(rows_, cols_);
  for (std::size_t i = 0; i < n; ++i) data_[i * cols_ + i] += value;
}

double Matrix::frobenius_norm() const noexcept {
  double acc = 0.0;
  for (double x : data_) acc += x * x;
  return std::sqrt(acc);
}

double Matrix::max_abs() const noexcept {
  double m = 0.0;
  for (double x : data_) m = std::max(m, std::abs(x));
  return m;
}

bool Matrix::is_symmetric(double tol) const {
  if (!square()) return false;
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = r + 1; c < cols_; ++c) {
      if (std::abs((*this)(r, c) - (*this)(c, r)) > tol) return false;
    }
  }
  return true;
}

Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }
Matrix operator*(Matrix lhs, double s) { return lhs *= s; }
Matrix operator*(double s, Matrix rhs) { return rhs *= s; }

Matrix operator*(const Matrix& a, const Matrix& b) {
  HP_REQUIRE(a.cols() == b.rows(), "Matrix *: inner dimension mismatch");
  Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) {
        out(i, j) += aik * b(k, j);
      }
    }
  }
  return out;
}

Vector operator*(const Matrix& a, const Vector& x) {
  HP_REQUIRE(a.cols() == x.size(), "Matrix * Vector: dimension mismatch");
  Vector out(a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) acc += a(i, j) * x[j];
    out[i] = acc;
  }
  return out;
}

Matrix gram(const Matrix& a) {
  Matrix g(a.cols(), a.cols());
  for (std::size_t i = 0; i < a.cols(); ++i) {
    for (std::size_t j = i; j < a.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.rows(); ++k) acc += a(k, i) * a(k, j);
      g(i, j) = acc;
      g(j, i) = acc;
    }
  }
  return g;
}

Vector transposed_times(const Matrix& a, const Vector& y) {
  HP_REQUIRE(a.rows() == y.size(), "transposed_times: dimension mismatch");
  Vector out(a.cols());
  for (std::size_t j = 0; j < a.cols(); ++j) {
    double acc = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i) acc += a(i, j) * y[i];
    out[j] = acc;
  }
  return out;
}

double max_abs_diff(const Matrix& a, const Matrix& b) {
  HP_REQUIRE(same_shape(a, b), shape_mismatch("max_abs_diff", a, b));
  double m = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      m = std::max(m, std::abs(a(r, c) - b(r, c)));
    }
  }
  return m;
}

std::ostream& operator<<(std::ostream& os, const Matrix& m) {
  os << '[';
  for (std::size_t r = 0; r < m.rows(); ++r) {
    if (r != 0) os << "; ";
    for (std::size_t c = 0; c < m.cols(); ++c) {
      if (c != 0) os << ", ";
      os << m(r, c);
    }
  }
  return os << ']';
}

}  // namespace hp::linalg
