#pragma once
// Reference arithmetic for the linalg tests: the product A x and the
// distances their checks compare by, which the library itself never needs.

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace hp::linalg::testing {

/// A x.
inline Vector times(const Matrix& a, const Vector& x) {
  Vector out(a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    out[i] = dot(a.row_span(i), x.raw());
  }
  return out;
}

/// Euclidean norm.
inline double norm(const Vector& v) { return std::sqrt(dot(v, v)); }

/// Largest absolute entry-wise difference of equal-sized vectors.
inline double max_abs_diff(const Vector& a, const Vector& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

/// Largest absolute entry-wise difference of equal-shaped matrices.
inline double max_abs_diff(const Matrix& a, const Matrix& b) {
  double m = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      m = std::max(m, std::abs(a(r, c) - b(r, c)));
    }
  }
  return m;
}

}  // namespace hp::linalg::testing
