#include "linalg/vector.hpp"

#include <numeric>
#include <stdexcept>
#include <string>

#include "core/contracts.hpp"

namespace hp::linalg {

namespace {
// Contract detail string for a dimension mismatch; only built on failure.
// [[maybe_unused]]: with HP_CONTRACTS=0 every call site compiles out.
[[maybe_unused]] std::string size_mismatch(const char* op, std::size_t a,
                                           std::size_t b) {
  return std::string("Vector ") + op + ": dimension mismatch (" +
         std::to_string(a) + " vs " + std::to_string(b) + ")";
}
}  // namespace

double Vector::sum() const noexcept {
  return std::accumulate(data_.begin(), data_.end(), 0.0);
}

double Vector::mean() const {
  if (data_.empty()) throw std::logic_error("Vector::mean on empty vector");
  return sum() / static_cast<double>(data_.size());
}

double dot(const Vector& a, const Vector& b) {
  HP_REQUIRE(a.size() == b.size(), size_mismatch("dot", a.size(), b.size()));
  return dot(std::span<const double>(a.raw()),
             std::span<const double>(b.raw()));
}

double dot(std::span<const double> a, std::span<const double> b) {
  HP_REQUIRE(a.size() == b.size(), size_mismatch("dot", a.size(), b.size()));
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

}  // namespace hp::linalg
