#include "losses/hard_loss.h"

#include <algorithm>
#include <cmath>

#include "tensor/check.h"
#include "tensor/ops.h"

namespace goldfish::losses {

namespace {

void check_batch(const Tensor& logits, const std::vector<long>& labels) {
  GOLDFISH_CHECK(logits.rank() == 2, "loss expects (N, classes) logits");
  GOLDFISH_CHECK(static_cast<long>(labels.size()) == logits.dim(0),
                 "labels/logits batch mismatch");
  for (long y : labels)
    GOLDFISH_CHECK(y >= 0 && y < logits.dim(1), "label out of range");
}

}  // namespace

float CrossEntropyLoss::eval_into(const Tensor& logits,
                                  const std::vector<long>& labels,
                                  Tensor& grad) const {
  check_batch(logits, labels);
  const long n = logits.dim(0), c = logits.dim(1);
  grad.resize_uninit(logits.shape());
  double total = 0.0;
  const float inv_n = 1.0f / static_cast<float>(n);
  for (long i = 0; i < n; ++i) {
    // Row i of softmax_rows and log_softmax_rows, op for op, with the
    // softmax written straight into the gradient (one-hot subtracted below).
    const float* z = logits.data() + i * c;
    float* g = grad.data() + i * c;
    float mx = -1e30f;
    for (long j = 0; j < c; ++j) mx = std::max(mx, z[j]);
    double denom = 0.0;
    for (long j = 0; j < c; ++j) {
      g[j] = std::exp(z[j] - mx);
      denom += g[j];
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (long j = 0; j < c; ++j) g[j] *= inv;
    const long y = labels[static_cast<std::size_t>(i)];
    total -= (z[y] - mx) - static_cast<float>(std::log(denom));
    g[y] -= 1.0f;
    for (long j = 0; j < c; ++j) g[j] *= inv_n;
  }
  return static_cast<float>(total / n);
}

LossResult FocalLoss::eval(const Tensor& logits,
                           const std::vector<long>& labels) const {
  check_batch(logits, labels);
  const long n = logits.dim(0), c = logits.dim(1);
  const Tensor p = softmax_rows(logits);
  LossResult r;
  r.grad_logits = Tensor({n, c});
  double total = 0.0;
  const float inv_n = 1.0f / static_cast<float>(n);
  for (long i = 0; i < n; ++i) {
    const long y = labels[static_cast<std::size_t>(i)];
    const float py = std::max(p.at(i, y), 1e-12f);
    const float one_minus = 1.0f - py;
    const float logpy = std::log(py);
    total += -std::pow(one_minus, gamma_) * logpy;
    // dL/dp_y = γ(1−p)^{γ−1}·log p − (1−p)^γ / p ; chain through softmax.
    const float dL_dpy = gamma_ * std::pow(one_minus, gamma_ - 1.0f) * logpy -
                         std::pow(one_minus, gamma_) / py;
    for (long j = 0; j < c; ++j) {
      const float dpy_dzj =
          (j == y) ? p.at(i, y) * (1.0f - p.at(i, y))
                   : -p.at(i, y) * p.at(i, j);
      r.grad_logits.at(i, j) = dL_dpy * dpy_dzj * inv_n;
    }
  }
  r.value = static_cast<float>(total / n);
  return r;
}

LossResult NllLoss::eval(const Tensor& logits,
                         const std::vector<long>& labels) const {
  check_batch(logits, labels);
  const long n = logits.dim(0), c = logits.dim(1);
  // Explicit two-stage path: model logits → log-probabilities → NLL.
  const Tensor logp = log_softmax_rows(logits);
  LossResult r;
  r.grad_logits = Tensor({n, c});
  double total = 0.0;
  const float inv_n = 1.0f / static_cast<float>(n);
  for (long i = 0; i < n; ++i) {
    const long y = labels[static_cast<std::size_t>(i)];
    total -= logp.at(i, y);
    // ∂(−logp_y)/∂z_j = softmax_j − 1[j==y]; recompute softmax from logp.
    for (long j = 0; j < c; ++j) {
      const float pj = std::exp(logp.at(i, j));
      r.grad_logits.at(i, j) = (pj - (j == y ? 1.0f : 0.0f)) * inv_n;
    }
  }
  r.value = static_cast<float>(total / n);
  return r;
}

std::unique_ptr<HardLoss> make_hard_loss(const std::string& name) {
  if (name == "cross_entropy") return std::make_unique<CrossEntropyLoss>();
  if (name == "focal") return std::make_unique<FocalLoss>();
  if (name == "nll") return std::make_unique<NllLoss>();
  GOLDFISH_CHECK(false, "unknown hard loss: " + name);
  return nullptr;  // unreachable
}

}  // namespace goldfish::losses
