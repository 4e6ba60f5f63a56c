// Fully connected layer: y = x·Wᵀ + b, the bias fused into the GEMM
// writeback. An activation after it is a separate layer (nn::ReLU).
#pragma once

#include "nn/layer.h"

namespace goldfish::nn {

class Linear final : public Layer {
 public:
  /// He-initialized weights (suits the ReLU networks all paper models use).
  Linear(long in_features, long out_features, Rng& rng);

  const Tensor& forward(const Tensor& x, bool train) override;
  const Tensor& backward(const Tensor& grad_output) override;
  std::vector<ParamRef> params() override;
  std::unique_ptr<Layer> clone() const override;
  std::string name() const override;
  std::size_t local_slots() const override { return 2; }  // y, dx

  long in_features() const { return in_; }
  long out_features() const { return out_; }

 private:
  long in_ = 0, out_ = 0;
  Tensor weight_;  // (out, in)
  Tensor bias_;    // (out)
  Tensor grad_weight_, grad_bias_;
  Tensor cached_input_;  // (N, in) from the last forward
};

}  // namespace goldfish::nn
