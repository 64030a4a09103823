#pragma once
// Sequential network container plus the CNN architecture description shared
// between the trainer (this module) and the hardware cost model (src/hw).
// The description mirrors the paper's AlexNet-variant space: alternating
// conv/pool stages followed by fully connected stages.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/layers.hpp"
#include "nn/softmax.hpp"
#include "nn/tensor.hpp"

namespace hp::nn {

/// One convolution stage: conv(features, kernel) + ReLU + maxpool(pool).
struct ConvStage {
  std::size_t features = 32;    ///< paper range 20-80
  std::size_t kernel_size = 3;  ///< paper range 2-5
  std::size_t pool_size = 2;    ///< paper range 1-3 (1 = no pooling)
};

/// One fully connected stage: dense(units) + ReLU.
struct DenseStage {
  std::size_t units = 256;  ///< paper range 200-700
};

/// Structural description of an AlexNet-variant CNN. This is exactly the
/// set of *structural* hyper-parameters z the paper's power/memory models
/// are trained on (training hyper-parameters such as learning rate do not
/// appear here because they do not affect inference power/memory).
struct CnnSpec {
  Shape input{1, 1, 16, 16};  ///< single-item input shape (n ignored)
  std::vector<ConvStage> conv_stages;
  std::vector<DenseStage> dense_stages;
  std::size_t num_classes = 10;

  /// The structural hyper-parameter vector z (features/kernels/pools/units
  /// flattened in order), used as features by the hardware models.
  [[nodiscard]] std::vector<double> structural_vector() const;

  /// Human-readable one-line summary for logs.
  [[nodiscard]] std::string to_string() const;
};

/// Per-layer workload numbers consumed by the hardware cost model.
struct LayerWorkload {
  std::string name;
  std::size_t macs = 0;         ///< multiply-accumulates per single-item inference
  std::size_t weight_count = 0; ///< learnable scalars
  std::size_t activation_count = 0;  ///< output activations per item
};

/// Whole-network workload summary (batch size 1).
struct WorkloadSummary {
  std::vector<LayerWorkload> layers;
  std::size_t total_macs = 0;
  std::size_t total_weights = 0;
  std::size_t total_activations = 0;
  std::size_t peak_activations = 0;  ///< max single-layer output size
};

/// Sequential network: layers + fused softmax-CE head.
class Network {
 public:
  Network(std::vector<std::unique_ptr<Layer>> layers, std::size_t num_classes);

  /// (Re-)initializes every layer's parameters deterministically.
  void initialize(stats::Rng& rng);

  /// Forward pass to class probabilities; returns mean CE loss.
  [[nodiscard]] double forward(const Tensor& input,
                               std::span<const std::uint8_t> labels);

  /// Backward pass; accumulates gradients in the layers. Must follow a
  /// matching forward() on the same input.
  void backward(const Tensor& input, std::span<const std::uint8_t> labels);

  /// Classification error (1 - accuracy) on a batch, forward only.
  [[nodiscard]] double evaluate_error(const Tensor& input,
                                      std::span<const std::uint8_t> labels);

  /// All learnable parameters across layers.
  [[nodiscard]] std::vector<Parameter*> parameters();

  /// Zeroes all parameter gradients.
  void zero_gradients();

  [[nodiscard]] std::size_t num_layers() const noexcept { return layers_.size(); }
  [[nodiscard]] const Layer& layer(std::size_t i) const { return *layers_.at(i); }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  SoftmaxCrossEntropy loss_;
  // Cached per-layer activations from the last forward pass.
  std::vector<Tensor> activations_;
  Tensor probabilities_;
  std::vector<Tensor> grad_buffers_;
};

/// Builds a trainable Network from a CnnSpec. Throws std::invalid_argument
/// if the spatial dimensions collapse below the next kernel (infeasible
/// architecture), mirroring Caffe generation failures for bad configs.
[[nodiscard]] Network build_network(const CnnSpec& spec);

/// Computes the per-layer workload of @p spec without building a Network.
/// Throws std::invalid_argument for infeasible architectures.
[[nodiscard]] WorkloadSummary compute_workload(const CnnSpec& spec);

/// True if the spec produces a valid network (spatial dims never collapse).
[[nodiscard]] bool is_feasible(const CnnSpec& spec);

}  // namespace hp::nn
