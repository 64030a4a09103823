#include "nn/tensor.hpp"

#include <algorithm>
#include <cmath>

namespace hp::nn {

void Tensor::fill(float value) noexcept {
  std::fill(data_.begin(), data_.end(), value);
}

void Tensor::reshape(Shape shape) {
  shape_ = shape;
  data_.assign(shape.count(), 0.0F);
}

bool Tensor::has_non_finite() const noexcept {
  return std::any_of(data_.begin(), data_.end(),
                     [](float x) { return !std::isfinite(x); });
}

}  // namespace hp::nn
