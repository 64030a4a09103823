#pragma once
// Dense real vector with checked element access and the inner products the
// rest of the library needs.
//
// Design notes: the library deals with small/medium dense problems (GP
// kernel matrices of a few hundred rows, least-squares designs with tens of
// columns), so the implementation favours clarity and safety over cache
// blocking. All sizes are std::size_t. Bounds and dimension checks are
// contracts (src/core/contracts.hpp): checked builds throw
// hp::core::ContractViolation, Release builds compile the checks out.

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "core/contracts.hpp"

namespace hp::linalg {

/// Dense column vector of doubles.
class Vector {
 public:
  Vector() = default;
  /// Zero-initialized vector of dimension @p n.
  explicit Vector(std::size_t n) : data_(n, 0.0) {}
  /// Vector of dimension @p n with every entry set to @p fill.
  Vector(std::size_t n, double fill) : data_(n, fill) {}
  Vector(std::initializer_list<double> init) : data_(init) {}
  explicit Vector(std::vector<double> values) : data_(std::move(values)) {}

  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  /// Element access; bounds are an HP_BOUNDS contract (checked builds
  /// throw hp::core::ContractViolation, Release is unchecked). Defined here
  /// so inner loops inline them.
  [[nodiscard]] double& operator[](std::size_t i) {
    HP_BOUNDS(i, data_.size());
    return data_[i];
  }
  [[nodiscard]] double operator[](std::size_t i) const {
    HP_BOUNDS(i, data_.size());
    return data_[i];
  }

  [[nodiscard]] const std::vector<double>& raw() const noexcept { return data_; }
  [[nodiscard]] std::vector<double>& raw() noexcept { return data_; }

  [[nodiscard]] double* data() noexcept { return data_.data(); }
  [[nodiscard]] const double* data() const noexcept { return data_.data(); }

  auto begin() noexcept { return data_.begin(); }
  auto end() noexcept { return data_.end(); }
  auto begin() const noexcept { return data_.begin(); }
  auto end() const noexcept { return data_.end(); }

  /// Sum of entries.
  [[nodiscard]] double sum() const noexcept;
  /// Arithmetic mean; throws std::logic_error on an empty vector.
  [[nodiscard]] double mean() const;

 private:
  std::vector<double> data_;
};

/// Inner product; equal dimensions are an HP_REQUIRE contract.
[[nodiscard]] double dot(const Vector& a, const Vector& b);

/// Inner product over raw spans, with the same accumulation order as the
/// Vector overload — the allocation-free form used by the batched GP
/// prediction path.
[[nodiscard]] double dot(std::span<const double> a, std::span<const double> b);

}  // namespace hp::linalg
