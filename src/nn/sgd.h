// SGD with momentum — the optimizer used throughout the paper
// (η = 0.001, β = 0.9 in the experimental setup).
#pragma once

#include "nn/model.h"

namespace goldfish::nn {

class Sgd {
 public:
  struct Options {
    float lr = 0.001f;
    float momentum = 0.9f;
    float weight_decay = 0.0f;
    /// Gradient-norm clip; <= 0 disables. The Goldfish hard loss maximizes
    /// the forget-set loss, which can produce occasional large gradients —
    /// clipping keeps unlearning runs stable (DESIGN.md §5).
    float clip_norm = 5.0f;
  };

  Sgd() = default;
  explicit Sgd(Options opts) : opts_(opts) {}
  /// Momentum buffers borrowed from `velocity` (zeroed on the first step)
  /// instead of owned.
  Sgd(Options opts, std::vector<Tensor>& velocity)
      : opts_(opts), borrowed_(&velocity) {}

  const Options& options() const { return opts_; }
  void set_lr(float lr) { opts_.lr = lr; }

  /// Apply one update step from the model's accumulated gradients, then
  /// zero them. Parameters without gradients (batch-norm running stats) are
  /// untouched.
  void step(Model& model);

 private:
  Options opts_;
  // Momentum buffers keyed by parameter order; sized lazily on first step.
  std::vector<Tensor> velocity_;
  std::vector<Tensor>* borrowed_ = nullptr;  // used instead when set
  bool started_ = false;
};

}  // namespace goldfish::nn
