// The Goldfish procedure (Algorithm 1, lines 24–35): knowledge-distillation
// retraining of a student model against a fixed teacher, with the composite
// loss of Eq. 1–6, adaptive temperature (Eq. 11), and early termination by
// excess empirical risk (Eq. 7).
#pragma once

#include "core/adaptive_temperature.h"
#include "data/dataset.h"
#include "losses/goldfish_loss.h"
#include "nn/model.h"

namespace goldfish::core {

struct DistillOptions {
  long max_epochs = 5;    ///< n in Algorithm 1 (upper bound when early
                          ///< termination is enabled)
  long batch_size = 100;  ///< paper: B = 100
  float lr = 0.001f;      ///< paper: η = 0.001
  float momentum = 0.9f;  ///< paper: β = 0.9
  losses::GoldfishLossConfig loss;
  /// Extension module: adapt T to the client's deletion fraction (Eq. 11).
  bool use_adaptive_temperature = true;
  AdaptiveTemperature temperature;
  /// Optimization module: stop when excess empirical risk ≤ delta (Eq. 7).
  bool use_early_termination = true;
  float delta = 0.05f;
  std::uint64_t seed = 1;
};

struct DistillResult {
  std::vector<float> epoch_losses;  ///< student total loss per local epoch
  long epochs_run = 0;
  bool terminated_early = false;
  float final_excess_risk = 0.0f;
  float temperature_used = 0.0f;
};

/// The frozen teacher's view of D_r, computed once per client task: one
/// forward pass over D_r (fl::dataset_loss's 256-row chunks) yields both the
/// teacher's logits table and the Eq. 7 reference loss, so distillation
/// epochs gather teacher rows instead of forwarding the teacher per batch.
///
/// The table is bitwise what a per-batch `teacher.forward` would give: a
/// row's logits depend only on that row. runtime::sgemm reduces k in a fixed
/// order and runs the full zero-padded microkernel whatever m and n are, and
/// conv lowering, activations, pooling and eval-mode BatchNorm are
/// per-sample, so which rows share a forward pass never changes a result.
struct TeacherTargets {
  Tensor logits;              ///< (|D_r|, C): row i = teacher logits of row i
  float reference_loss = 0.0f;  ///< L(ω^{t−1}) on D_r, as reference_loss_of
};

/// One teacher pass over `d_r`; `reference_loss` is bit-identical to
/// reference_loss_of(teacher, d_r, opts).
TeacherTargets teacher_targets(nn::Model& teacher, const data::Dataset& d_r,
                               const DistillOptions& opts);

/// Run the Goldfish local update against precomputed teacher targets (the
/// only training loop). `targets` must come from `d_r`; its reference loss
/// anchors Eq. 7. `d_f` may be empty (normal clients, Algorithm 1 line 32).
DistillResult goldfish_distill(nn::Model& student,
                               const TeacherTargets& targets,
                               const data::Dataset& d_r,
                               const data::Dataset& d_f,
                               const DistillOptions& opts);

/// Convenience form: builds `teacher`'s targets on `d_r` (its weights are
/// never modified; non-const because forward passes mutate layer caches),
/// then distills with `reference_loss` as L(ω^{t−1}) for Eq. 7.
DistillResult goldfish_distill(nn::Model& student, nn::Model& teacher,
                               const data::Dataset& d_r,
                               const data::Dataset& d_f, float reference_loss,
                               const DistillOptions& opts);

/// L(ω^{t−1}): the previous global model's hard loss on the remaining data,
/// the reference point of the early-termination criterion.
float reference_loss_of(nn::Model& prev_global, const data::Dataset& d_r,
                        const DistillOptions& opts);

}  // namespace goldfish::core
