// Hard-loss implementations: the "discrepancy between predictions and actual
// labels" family (§III-B). Three interchangeable variants back the paper's
// compatibility study (Table XI): cross-entropy (α), focal (β), NLL (γ).
//
// Every loss returns both its scalar value (mean over the batch) and the
// gradient w.r.t. the logits, so callers backpropagate without re-deriving
// softmax Jacobians.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace goldfish::losses {

/// Loss value plus gradient w.r.t. the logits that produced it.
struct LossResult {
  float value = 0.0f;
  Tensor grad_logits;
};

/// Interface over per-sample classification losses on logits.
class HardLoss {
 public:
  virtual ~HardLoss() = default;
  /// Mean loss over the batch; labels.size() must equal logits.dim(0).
  virtual LossResult eval(const Tensor& logits,
                          const std::vector<long>& labels) const = 0;
  /// eval() with the gradient written into `grad` (reshaped in place, so a
  /// reused buffer allocates nothing); returns the loss value.
  virtual float eval_into(const Tensor& logits, const std::vector<long>& labels,
                          Tensor& grad) const {
    LossResult r = eval(logits, labels);
    grad = std::move(r.grad_logits);
    return r.value;
  }
  virtual std::string name() const = 0;
  virtual std::unique_ptr<HardLoss> clone() const = 0;
};

/// Softmax cross-entropy: −log p_y. "Total loss α" in Table XI.
class CrossEntropyLoss final : public HardLoss {
 public:
  LossResult eval(const Tensor& logits,
                  const std::vector<long>& labels) const override {
    LossResult r;
    r.value = eval_into(logits, labels, r.grad_logits);
    return r;
  }
  float eval_into(const Tensor& logits, const std::vector<long>& labels,
                  Tensor& grad) const override;
  std::string name() const override { return "cross_entropy"; }
  std::unique_ptr<HardLoss> clone() const override {
    return std::make_unique<CrossEntropyLoss>(*this);
  }
};

/// Focal loss (Lin et al., ICCV'17): −(1−p_y)^γ·log p_y. "Total loss β".
class FocalLoss final : public HardLoss {
 public:
  explicit FocalLoss(float gamma = 2.0f) : gamma_(gamma) {}
  LossResult eval(const Tensor& logits,
                  const std::vector<long>& labels) const override;
  std::string name() const override { return "focal"; }
  std::unique_ptr<HardLoss> clone() const override {
    return std::make_unique<FocalLoss>(*this);
  }
  float gamma() const { return gamma_; }

 private:
  float gamma_;
};

/// Negative log-likelihood over log-softmax outputs. On a logits model this
/// coincides with cross-entropy analytically (PyTorch's CE = log_softmax +
/// NLL); kept as a distinct type for the Table XI protocol, with the
/// log-probabilities path exercised explicitly. "Total loss γ".
class NllLoss final : public HardLoss {
 public:
  LossResult eval(const Tensor& logits,
                  const std::vector<long>& labels) const override;
  std::string name() const override { return "nll"; }
  std::unique_ptr<HardLoss> clone() const override {
    return std::make_unique<NllLoss>(*this);
  }
};

/// Factory by name: "cross_entropy" | "focal" | "nll".
std::unique_ptr<HardLoss> make_hard_loss(const std::string& name);

}  // namespace goldfish::losses
