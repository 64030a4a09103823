#pragma once
// Layer interface for the NN substrate, plus the parameter-free layers
// (ReLU). Parameterized layers live in conv2d/pooling/dense/softmax.

#include <memory>
#include <string>
#include <vector>

#include "nn/tensor.hpp"
#include "stats/rng.hpp"

namespace hp::nn {

/// One learnable parameter blob and its gradient accumulator.
struct Parameter {
  Tensor value;
  Tensor gradient;
  /// Whether weight decay applies (true for weights, false for biases).
  bool decay = true;
};

/// Abstract NN layer. Layers own their parameters and cache whatever they
/// need from forward() to run backward(). The batch dimension of the input
/// may change between calls; layers must re-derive per-batch workspace
/// sizes in forward().
class Layer {
 public:
  virtual ~Layer() = default;

  /// Output shape for a given input shape; throws std::invalid_argument if
  /// the input shape is unsupported (wrong channel count, too small, ...).
  [[nodiscard]] virtual Shape output_shape(const Shape& input) const = 0;

  /// Forward pass.
  virtual void forward(const Tensor& input, Tensor& output) = 0;

  /// Backward pass: given d(loss)/d(output), accumulates parameter
  /// gradients and computes d(loss)/d(input). Must be called after a
  /// matching forward().
  virtual void backward(const Tensor& input, const Tensor& grad_output,
                        Tensor& grad_input) = 0;

  /// Learnable parameters (empty for activation/pool layers).
  [[nodiscard]] virtual std::vector<Parameter*> parameters() { return {}; }

  /// (Re-)initializes parameters from @p rng; default no-op.
  virtual void initialize(stats::Rng& rng) { (void)rng; }

  [[nodiscard]] virtual std::string name() const = 0;

  /// Multiply-accumulate count for a forward pass at the given input shape;
  /// used by the hardware cost model. Default 0 for parameter-free layers.
  [[nodiscard]] virtual std::size_t forward_macs(const Shape& input) const {
    (void)input;
    return 0;
  }
};

/// Rectified linear unit, applied element-wise.
class ReluLayer final : public Layer {
 public:
  [[nodiscard]] Shape output_shape(const Shape& input) const override;
  void forward(const Tensor& input, Tensor& output) override;
  void backward(const Tensor& input, const Tensor& grad_output,
                Tensor& grad_input) override;
  [[nodiscard]] std::string name() const override { return "relu"; }
};

}  // namespace hp::nn
