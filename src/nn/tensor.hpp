#pragma once
// Minimal dense 4-D tensor (N, C, H, W) used by the from-scratch neural
// network substrate. Row-major flat storage, read and written through raw
// spans.

#include <array>
#include <cstddef>
#include <span>
#include <vector>

namespace hp::nn {

/// Shape of a 4-D tensor: batch, channels, height, width. Vectors (e.g.
/// dense-layer activations) use shape {n, c, 1, 1}.
struct Shape {
  std::size_t n = 0;
  std::size_t c = 0;
  std::size_t h = 0;
  std::size_t w = 0;

  [[nodiscard]] std::size_t count() const noexcept { return n * c * h * w; }
  /// Elements per batch item.
  [[nodiscard]] std::size_t per_item() const noexcept { return c * h * w; }
  [[nodiscard]] bool operator==(const Shape&) const = default;
};

/// Dense float32 tensor. Float matches the precision NNs actually train in
/// and halves the memory of the conv workspaces.
class Tensor {
 public:
  Tensor() = default;
  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape) : shape_(shape), data_(shape.count(), 0.0F) {}

  [[nodiscard]] const Shape& shape() const noexcept { return shape_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  /// Unchecked flat access for hot loops.
  [[nodiscard]] float* data() noexcept { return data_.data(); }
  [[nodiscard]] const float* data() const noexcept { return data_.data(); }
  [[nodiscard]] std::span<float> flat() noexcept { return data_; }
  [[nodiscard]] std::span<const float> flat() const noexcept { return data_; }

  /// Pointer to the start of batch item @p n.
  [[nodiscard]] float* item(std::size_t n) noexcept {
    return data_.data() + n * shape_.per_item();
  }
  [[nodiscard]] const float* item(std::size_t n) const noexcept {
    return data_.data() + n * shape_.per_item();
  }

  void fill(float value) noexcept;
  /// Resets shape and zero-fills.
  void reshape(Shape shape);

  /// True if any entry is NaN or infinite.
  [[nodiscard]] bool has_non_finite() const noexcept;

 private:
  Shape shape_{};
  std::vector<float> data_;
};

}  // namespace hp::nn
