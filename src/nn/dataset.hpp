#pragma once
// Procedurally generated image-classification datasets standing in for
// MNIST and CIFAR-10 (we have no network access and ship no binary data).
// The generators produce genuinely learnable multi-class problems:
//  - SyntheticMnist: 1-channel glyph-like images; 10 classes defined by
//    distinct stroke patterns, randomly translated and noise-corrupted.
//  - SyntheticCifar: 3-channel texture/shape images; 10 classes defined by
//    color-texture prototypes with random phase/frequency jitter, a harder
//    problem (matching CIFAR-10's higher error regime in the paper).

#include <cstdint>
#include <span>
#include <vector>

#include "nn/tensor.hpp"
#include "stats/rng.hpp"

namespace hp::nn {

/// A labelled dataset stored as one big tensor + label vector.
class Dataset {
 public:
  Dataset() = default;
  Dataset(Tensor images, std::vector<std::uint8_t> labels);

  [[nodiscard]] std::size_t size() const noexcept { return labels_.size(); }
  [[nodiscard]] const Tensor& images() const noexcept { return images_; }
  [[nodiscard]] std::span<const std::uint8_t> labels() const noexcept {
    return labels_;
  }
  /// Single-item shape {1, c, h, w}.
  [[nodiscard]] Shape item_shape() const noexcept;
  [[nodiscard]] std::size_t num_classes() const noexcept { return num_classes_; }

  /// Copies the items at @p indices into a contiguous batch.
  void gather(std::span<const std::size_t> indices, Tensor& batch,
              std::vector<std::uint8_t>& batch_labels) const;

 private:
  Tensor images_;
  std::vector<std::uint8_t> labels_;
  std::size_t num_classes_ = 0;
};

/// Options common to both synthetic generators.
struct SyntheticDataOptions {
  std::size_t train_size = 512;
  std::size_t test_size = 256;
  std::size_t image_size = 16;  ///< square images
  std::uint64_t seed = 42;
};

/// Train/test pair.
struct DataSplit {
  Dataset train;
  Dataset test;
};

/// MNIST-like: 10 glyph classes, 1 channel.
[[nodiscard]] DataSplit make_synthetic_mnist(const SyntheticDataOptions& options);

/// CIFAR-like: 10 color-texture classes, 3 channels; intrinsically harder
/// (higher Bayes error at the same noise level).
[[nodiscard]] DataSplit make_synthetic_cifar(const SyntheticDataOptions& options);

}  // namespace hp::nn
