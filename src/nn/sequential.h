// Sequential container and the residual block used by the ResNet models.
#pragma once

#include <memory>
#include <vector>

#include "nn/layer.h"

namespace goldfish::nn {

/// Ordered chain of layers; forward runs left→right, backward right→left.
/// Every layer runs on its own: no pair of layers is fused.
class Sequential final : public Layer {
 public:
  Sequential() = default;
  Sequential(const Sequential& other);
  Sequential& operator=(const Sequential& other);
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  void add(std::unique_ptr<Layer> layer);
  std::size_t size() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_[i]; }

  const Tensor& forward(const Tensor& x, bool train) override;
  const Tensor& backward(const Tensor& grad_output) override;
  std::vector<ParamRef> params() override;
  std::unique_ptr<Layer> clone() const override;
  std::string name() const override;
  void attach_workspace(Workspace* ws, std::size_t& next_key) override;

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

/// Pre-activation-free classic residual block:
///   y = relu( bn2(conv2(relu(bn1(conv1(x))))) + shortcut(x) )
/// where shortcut is identity, or 1×1 strided conv + bn when the shape
/// changes (stage transitions in ResNet-32/56).
class ResidualBlock final : public Layer {
 public:
  /// in_h/in_w are the spatial dims entering the block.
  ResidualBlock(long in_channels, long out_channels, long stride, long in_h,
                long in_w, Rng& rng);
  ResidualBlock(const ResidualBlock& other);
  ResidualBlock& operator=(const ResidualBlock& other);

  const Tensor& forward(const Tensor& x, bool train) override;
  const Tensor& backward(const Tensor& grad_output) override;
  std::vector<ParamRef> params() override;
  std::unique_ptr<Layer> clone() const override;
  std::string name() const override;
  void attach_workspace(Workspace* ws, std::size_t& next_key) override;
  std::size_t local_slots() const override { return 2; }  // mask, masked g

 private:
  std::unique_ptr<Layer> conv1_, bn1_, relu1_, conv2_, bn2_;
  std::unique_ptr<Layer> short_conv_, short_bn_;  // null for identity
  Shape out_shape_;  // shape of the last forward's output / relu mask
  bool has_projection_ = false;
};

}  // namespace goldfish::nn
