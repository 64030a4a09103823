#include "nn/layers.hpp"

#include <stdexcept>

namespace hp::nn {

Shape ReluLayer::output_shape(const Shape& input) const { return input; }

void ReluLayer::forward(const Tensor& input, Tensor& output) {
  if (output.shape() != input.shape()) output.reshape(input.shape());
  const auto in = input.flat();
  auto out = output.flat();
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = in[i] > 0.0F ? in[i] : 0.0F;
  }
}

void ReluLayer::backward(const Tensor& input, const Tensor& grad_output,
                         Tensor& grad_input) {
  if (grad_output.shape() != input.shape()) {
    throw std::invalid_argument("ReluLayer::backward: shape mismatch");
  }
  if (grad_input.shape() != input.shape()) grad_input.reshape(input.shape());
  const auto in = input.flat();
  const auto go = grad_output.flat();
  auto gi = grad_input.flat();
  for (std::size_t i = 0; i < in.size(); ++i) {
    gi[i] = in[i] > 0.0F ? go[i] : 0.0F;
  }
}

}  // namespace hp::nn
