#include "nn/network.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/pooling.hpp"

namespace hp::nn {

std::vector<double> CnnSpec::structural_vector() const {
  std::vector<double> z;
  z.reserve(conv_stages.size() * 3 + dense_stages.size());
  for (const ConvStage& s : conv_stages) {
    z.push_back(static_cast<double>(s.features));
    z.push_back(static_cast<double>(s.kernel_size));
    z.push_back(static_cast<double>(s.pool_size));
  }
  for (const DenseStage& s : dense_stages) {
    z.push_back(static_cast<double>(s.units));
  }
  return z;
}

std::string CnnSpec::to_string() const {
  std::ostringstream os;
  os << "input " << input.c << "x" << input.h << "x" << input.w;
  for (const ConvStage& s : conv_stages) {
    os << " | conv" << s.kernel_size << "x" << s.kernel_size << "x"
       << s.features;
    if (s.pool_size > 1) os << " pool" << s.pool_size;
  }
  for (const DenseStage& s : dense_stages) os << " | fc" << s.units;
  os << " | softmax" << num_classes;
  return os.str();
}

Network::Network(std::vector<std::unique_ptr<Layer>> layers,
                 std::size_t num_classes)
    : layers_(std::move(layers)), loss_(num_classes) {
  if (layers_.empty()) {
    throw std::invalid_argument("Network: need at least one layer");
  }
  activations_.resize(layers_.size());
  grad_buffers_.resize(layers_.size());
}

void Network::initialize(stats::Rng& rng) {
  for (auto& layer : layers_) layer->initialize(rng);
}

double Network::forward(const Tensor& input,
                        std::span<const std::uint8_t> labels) {
  const Tensor* current = &input;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->forward(*current, activations_[i]);
    current = &activations_[i];
  }
  return loss_.forward(*current, labels, probabilities_);
}

void Network::backward(const Tensor& input,
                       std::span<const std::uint8_t> labels) {
  if (probabilities_.empty()) {
    throw std::logic_error("Network::backward before forward");
  }
  Tensor grad;
  loss_.backward(probabilities_, labels, grad);
  for (std::size_t ii = layers_.size(); ii-- > 0;) {
    const Tensor& layer_input = ii == 0 ? input : activations_[ii - 1];
    layers_[ii]->backward(layer_input, grad, grad_buffers_[ii]);
    grad = grad_buffers_[ii];
  }
}

double Network::evaluate_error(const Tensor& input,
                               std::span<const std::uint8_t> labels) {
  (void)forward(input, labels);
  return 1.0 - SoftmaxCrossEntropy::accuracy(probabilities_, labels);
}

std::vector<Parameter*> Network::parameters() {
  std::vector<Parameter*> out;
  for (auto& layer : layers_) {
    for (Parameter* p : layer->parameters()) out.push_back(p);
  }
  return out;
}

void Network::zero_gradients() {
  for (Parameter* p : parameters()) p->gradient.fill(0.0F);
}

Network build_network(const CnnSpec& spec) {
  std::vector<std::unique_ptr<Layer>> layers;
  Shape shape{1, spec.input.c, spec.input.h, spec.input.w};
  if (spec.num_classes < 2) {
    throw std::invalid_argument("CnnSpec: need >= 2 classes");
  }
  for (const ConvStage& s : spec.conv_stages) {
    auto conv = std::make_unique<Conv2dLayer>(shape.c, s.features, s.kernel_size);
    shape = conv->output_shape(shape);
    layers.push_back(std::move(conv));
    layers.push_back(std::make_unique<ReluLayer>());
    if (s.pool_size > 1) {
      auto pool = std::make_unique<MaxPoolLayer>(s.pool_size);
      shape = pool->output_shape(shape);
      layers.push_back(std::move(pool));
    }
    if (shape.h == 0 || shape.w == 0) {
      throw std::invalid_argument("CnnSpec: spatial dims collapsed to zero");
    }
  }
  for (const DenseStage& s : spec.dense_stages) {
    auto dense = std::make_unique<DenseLayer>(shape.per_item(), s.units);
    shape = dense->output_shape(shape);
    layers.push_back(std::move(dense));
    layers.push_back(std::make_unique<ReluLayer>());
  }
  layers.push_back(
      std::make_unique<DenseLayer>(shape.per_item(), spec.num_classes));
  return Network(std::move(layers), spec.num_classes);
}

WorkloadSummary compute_workload(const CnnSpec& spec) {
  // Pure arithmetic walk over the spec — no parameter allocation, so this
  // is cheap enough for the hot loops of profiling and cost modelling.
  // Tests assert consistency against the real layers (build_network).
  WorkloadSummary summary;
  Shape shape{1, spec.input.c, spec.input.h, spec.input.w};
  if (spec.num_classes < 2) {
    throw std::invalid_argument("CnnSpec: need >= 2 classes");
  }
  const auto record = [&summary](std::string name, std::size_t macs,
                                 std::size_t weights, const Shape& out) {
    LayerWorkload lw;
    lw.name = std::move(name);
    lw.macs = macs;
    lw.weight_count = weights;
    lw.activation_count = out.per_item();
    summary.layers.push_back(lw);
    summary.total_macs += lw.macs;
    summary.total_weights += lw.weight_count;
    summary.total_activations += lw.activation_count;
    summary.peak_activations =
        std::max(summary.peak_activations, lw.activation_count);
  };

  for (const ConvStage& s : spec.conv_stages) {
    if (s.features == 0 || s.kernel_size == 0 || s.pool_size == 0) {
      throw std::invalid_argument("CnnSpec: zero-sized conv stage");
    }
    if (shape.h < s.kernel_size || shape.w < s.kernel_size) {
      throw std::invalid_argument("CnnSpec: spatial dims below conv kernel");
    }
    const Shape conv_out{1, s.features, shape.h - s.kernel_size + 1,
                         shape.w - s.kernel_size + 1};
    const std::size_t patch = shape.c * s.kernel_size * s.kernel_size;
    record("conv2d", conv_out.per_item() * patch,
           s.features * patch + s.features, conv_out);
    shape = conv_out;
    record("relu", 0, 0, shape);
    if (s.pool_size > 1) {
      if (shape.h < s.pool_size || shape.w < s.pool_size) {
        throw std::invalid_argument("CnnSpec: spatial dims below pool window");
      }
      shape = Shape{1, shape.c, shape.h / s.pool_size, shape.w / s.pool_size};
      record("maxpool", 0, 0, shape);
    }
    if (shape.h == 0 || shape.w == 0) {
      throw std::invalid_argument("CnnSpec: spatial dims collapsed to zero");
    }
  }
  for (const DenseStage& s : spec.dense_stages) {
    if (s.units == 0) {
      throw std::invalid_argument("CnnSpec: zero-sized dense stage");
    }
    const std::size_t in_features = shape.per_item();
    const Shape out{1, s.units, 1, 1};
    record("dense", s.units * in_features, s.units * in_features + s.units,
           out);
    shape = out;
    record("relu", 0, 0, shape);
  }
  const std::size_t in_features = shape.per_item();
  record("dense", spec.num_classes * in_features,
         spec.num_classes * in_features + spec.num_classes,
         Shape{1, spec.num_classes, 1, 1});
  return summary;
}

bool is_feasible(const CnnSpec& spec) {
  try {
    (void)compute_workload(spec);
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

}  // namespace hp::nn
