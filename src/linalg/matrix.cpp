#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/contracts.hpp"

namespace hp::linalg {

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

Vector Matrix::row(std::size_t r) const {
  HP_BOUNDS(r, rows_);
  Vector v(cols_);
  for (std::size_t c = 0; c < cols_; ++c) v[c] = data_[r * cols_ + c];
  return v;
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

}  // namespace hp::linalg
