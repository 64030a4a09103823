#include "nn/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <stdexcept>

namespace hp::nn {

Dataset::Dataset(Tensor images, std::vector<std::uint8_t> labels)
    : images_(std::move(images)), labels_(std::move(labels)) {
  if (images_.shape().n != labels_.size()) {
    throw std::invalid_argument("Dataset: image/label count mismatch");
  }
  std::uint8_t max_label = 0;
  for (std::uint8_t l : labels_) max_label = std::max(max_label, l);
  num_classes_ = labels_.empty() ? 0 : static_cast<std::size_t>(max_label) + 1;
}

Shape Dataset::item_shape() const noexcept {
  const Shape& s = images_.shape();
  return {1, s.c, s.h, s.w};
}

void Dataset::gather(std::span<const std::size_t> indices, Tensor& batch,
                     std::vector<std::uint8_t>& batch_labels) const {
  const Shape& s = images_.shape();
  const Shape batch_shape{indices.size(), s.c, s.h, s.w};
  if (batch.shape() != batch_shape) batch.reshape(batch_shape);
  batch_labels.resize(indices.size());
  const std::size_t item_size = s.per_item();
  for (std::size_t i = 0; i < indices.size(); ++i) {
    if (indices[i] >= size()) {
      throw std::out_of_range("Dataset::gather: index out of range");
    }
    std::memcpy(batch.item(i), images_.item(indices[i]),
                item_size * sizeof(float));
    batch_labels[i] = labels_[indices[i]];
  }
}

namespace {

constexpr std::size_t kNumClasses = 10;
/// Additive Gaussian pixel noise (sd), before a generator's noise scale.
constexpr double kPixelNoiseSd = 0.15;

/// A class prototype: a smooth random field defined by a small bank of 2-D
/// cosine components. Distinct seeds give well-separated prototypes.
struct Prototype {
  struct Component {
    double fx, fy, phase, amplitude;
  };
  // One component bank per channel.
  std::vector<std::vector<Component>> channels;

  [[nodiscard]] double value(std::size_t c, double x, double y,
                             double phase_jitter) const {
    double acc = 0.0;
    for (const Component& comp : channels[c]) {
      acc += comp.amplitude *
             std::cos(2.0 * std::numbers::pi *
                          (comp.fx * x + comp.fy * y) +
                      comp.phase + phase_jitter);
    }
    return acc;
  }
};

Prototype make_prototype(std::size_t channels, std::size_t components,
                         stats::Rng& rng) {
  Prototype proto;
  proto.channels.resize(channels);
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t k = 0; k < components; ++k) {
      Prototype::Component comp{};
      comp.fx = rng.uniform(0.5, 3.0) * (rng.bernoulli(0.5) ? 1.0 : -1.0);
      comp.fy = rng.uniform(0.5, 3.0) * (rng.bernoulli(0.5) ? 1.0 : -1.0);
      comp.phase = rng.uniform(0.0, 2.0 * std::numbers::pi);
      comp.amplitude = rng.uniform(0.5, 1.0);
      proto.channels[c].push_back(comp);
    }
  }
  return proto;
}

/// Renders one sample of class @p label: prototype + translation +
/// per-sample phase jitter + pixel noise.
void render_sample(const Prototype& proto, float* out, std::size_t channels,
                   std::size_t size, double max_shift, double phase_jitter_sd,
                   double noise_level, stats::Rng& rng) {
  const double dx = rng.uniform(-max_shift, max_shift);
  const double dy = rng.uniform(-max_shift, max_shift);
  const double jitter = rng.gaussian(0.0, phase_jitter_sd);
  const double inv = 1.0 / static_cast<double>(size);
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t h = 0; h < size; ++h) {
      for (std::size_t w = 0; w < size; ++w) {
        const double x = (static_cast<double>(w) + dx) * inv;
        const double y = (static_cast<double>(h) + dy) * inv;
        double v = proto.value(c, x, y, jitter);
        v = 0.5 + 0.25 * v;  // squash to roughly [0,1]
        v += rng.gaussian(0.0, noise_level);
        out[(c * size + h) * size + w] = static_cast<float>(v);
      }
    }
  }
}

DataSplit make_synthetic(const SyntheticDataOptions& options,
                         std::size_t channels, std::size_t components,
                         double max_shift, double phase_jitter_sd,
                         double noise_scale) {
  if (options.image_size < 4) {
    throw std::invalid_argument("SyntheticDataOptions: image_size too small");
  }
  if (options.train_size == 0 || options.test_size == 0) {
    throw std::invalid_argument("SyntheticDataOptions: empty split");
  }
  stats::Rng rng(options.seed);
  std::vector<Prototype> protos;
  protos.reserve(kNumClasses);
  for (std::size_t k = 0; k < kNumClasses; ++k) {
    protos.push_back(make_prototype(channels, components, rng));
  }
  const double noise = kPixelNoiseSd * noise_scale;

  const auto generate = [&](std::size_t count) {
    Tensor images({count, channels, options.image_size, options.image_size});
    std::vector<std::uint8_t> labels(count);
    for (std::size_t i = 0; i < count; ++i) {
      const auto label = static_cast<std::uint8_t>(i % kNumClasses);
      labels[i] = label;
      render_sample(protos[label], images.item(i), channels,
                    options.image_size, max_shift, phase_jitter_sd, noise,
                    rng);
    }
    return Dataset(std::move(images), std::move(labels));
  };

  DataSplit split;
  split.train = generate(options.train_size);
  split.test = generate(options.test_size);
  return split;
}

}  // namespace

DataSplit make_synthetic_mnist(const SyntheticDataOptions& options) {
  // Gentle translations, no phase jitter: an easy, MNIST-like regime where
  // good configurations reach ~1% error.
  return make_synthetic(options, /*channels=*/1, /*components=*/3,
                        /*max_shift=*/1.5, /*phase_jitter_sd=*/0.0,
                        /*noise_scale=*/1.0);
}

DataSplit make_synthetic_cifar(const SyntheticDataOptions& options) {
  // Three channels, per-sample phase jitter and stronger noise: a harder,
  // CIFAR-like regime (error floor around 20% for small CNNs).
  return make_synthetic(options, /*channels=*/3, /*components=*/4,
                        /*max_shift=*/2.5, /*phase_jitter_sd=*/0.6,
                        /*noise_scale=*/2.0);
}

}  // namespace hp::nn
