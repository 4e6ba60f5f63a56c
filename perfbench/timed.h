// Traced counterparts of the library's client-side building blocks, used
// only by the benchmark's traced run:
//
//   * TimedLayer — a Layer decorator that records a span around each
//     forward/backward of the layer it wraps and counts the rows it saw;
//   * timed_model — the mlp<h> / lenet5 architectures assembled from the
//     library's public layer classes, each wrapped in a TimedLayer (a
//     Linear→ReLU pair is wrapped as one unit so the library's fused GEMM
//     epilogue still runs);
//   * TimedWire — a WirePolicy decorator timing encode/decode;
//   * traced_train_local / traced_distill — fl::train_local and
//     core::goldfish_distill re-expressed through the same public calls,
//     seeds and order, with spans around the batch, loss and optimizer
//     steps.
//
// The traced run proves these mirrors compute the same program by
// comparing its StepResult stream and final model bit for bit against the
// untraced run, which calls the library directly.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "core/distill_trainer.h"
#include "fl/policies.h"
#include "fl/trainer.h"
#include "nn/layer.h"
#include "nn/model.h"
#include "tensor/ops.h"

namespace perfbench {

using namespace goldfish;

/// Rows seen by one layer of a timed model, shared by every replica the
/// engine clones from it. FLOP counts per row come from the layer's shape.
struct LayerCost {
  enum Kind { kLinear, kConv, kPool, kRelu } kind = kLinear;
  long in = 0, out = 0;   // linear features; conv channels
  Conv2dGeom geom;        // conv only
  std::atomic<long long> fwd_rows{0};
  std::atomic<long long> bwd_rows{0};

  /// GEMM FLOPs of one forward row (backward runs two GEMMs of this size:
  /// weight gradient and input gradient).
  double fwd_flops_per_row() const;
};

/// The LayerCost table of one timed architecture: one entry per timed unit,
/// shared by every model built into it (twins, clones, replicas).
struct ModelCosts {
  std::vector<std::shared_ptr<LayerCost>> layers;
  void reset();
  double gemm_flops() const;  // forward + backward GEMM FLOPs counted
  std::vector<const LayerCost*> convs() const;
};

/// `arch` built from public layer classes with each unit timed; weights are
/// drawn like nn::make_model's and then overwritten by the caller (load a
/// library model's snapshot to get the same parameters).
nn::Model timed_model(const std::string& arch, const nn::InputGeom& geom,
                      long num_classes, ModelCosts& costs);

/// A traced twin of `lib`: same architecture and parameter values.
nn::Model timed_twin(const nn::Model& lib, const nn::InputGeom& geom,
                     ModelCosts& costs);

/// Cross-thread parent of client-side spans: the engine round currently in
/// flight and the request it belongs to, published by the main thread.
struct RoundContext {
  std::atomic<std::uint64_t> round{0};
  std::atomic<std::uint64_t> request{0};
};
RoundContext& round_context();

class TimedWire final : public fl::WirePolicy {
 public:
  explicit TimedWire(std::unique_ptr<fl::WirePolicy> inner);
  void encode(const std::vector<Tensor>& params,
              const std::vector<Tensor>* reference,
              std::string& out) const override;
  std::vector<Tensor> decode(const char* data, std::size_t size,
                             const std::vector<Tensor>* reference)
      const override;
  std::size_t encoded_bytes(const std::vector<Tensor>& like) const override {
    return inner_->encoded_bytes(like);
  }
  bool lossless() const override { return inner_->lossless(); }
  bool needs_reference() const override { return inner_->needs_reference(); }
  std::string name() const override { return inner_->name(); }

  /// Encoded bytes so far.
  long long bytes() const { return bytes_.load(); }

 private:
  std::unique_ptr<fl::WirePolicy> inner_;
  mutable std::atomic<long long> bytes_{0};
};

/// fl::train_local through its public building blocks, with spans.
void traced_train_local(nn::Model& model, const data::Dataset& ds,
                        const fl::TrainOptions& opts);

/// core::goldfish_distill through its public building blocks, with spans.
core::DistillResult traced_distill(nn::Model& student, nn::Model& teacher,
                                   const data::Dataset& d_r,
                                   const data::Dataset& d_f,
                                   float reference_loss,
                                   const core::DistillOptions& opts);

}  // namespace perfbench
