#include "fl/trainer.h"

#include <algorithm>

#include "tensor/check.h"

namespace goldfish::fl {

TrainStats train_local(nn::Model& model, const data::Dataset& ds,
                       const TrainOptions& opts) {
  GOLDFISH_CHECK(!ds.empty(), "training on an empty dataset");
  auto loss = losses::make_hard_loss(opts.loss);
  nn::Sgd::Options sgd_opts;
  sgd_opts.lr = opts.lr;
  sgd_opts.momentum = opts.momentum;
  // A model that keeps scratch (a pooled FL replica) trains without
  // allocating; any other uses per-call storage.
  nn::Model::Scratch call_scratch;
  nn::Model::Scratch& scratch =
      model.scratch() != nullptr ? *model.scratch() : call_scratch;
  nn::Sgd sgd(sgd_opts, scratch.velocity);
  Rng rng(opts.seed);

  // backward() accumulates into whatever the gradient buffers hold; a model
  // handed in with non-zero accumulators (e.g. a pooled replica loaded via
  // Model::load, which — unlike copy_from — leaves gradients untouched)
  // would silently fold stale gradients into its first step.
  model.zero_grad();

  TrainStats stats;
  Tensor& x = scratch.batch;
  std::vector<long> y;
  for (long e = 0; e < opts.epochs; ++e) {
    data::BatchIterator it(ds, opts.batch_size, rng);
    double epoch_loss = 0.0;
    for (std::size_t b = 0; b < it.num_batches(); ++b) {
      const auto [idx, count] = it.batch_span(b);
      ds.batch_into(idx, count, x, y);
      const Tensor& logits = model.forward(x, /*train=*/true);
      const float value = loss->eval_into(logits, y, scratch.grad_logits);
      model.backward(scratch.grad_logits);
      sgd.step(model);
      epoch_loss += value;
      ++stats.steps;
    }
    stats.epoch_losses.push_back(
        static_cast<float>(epoch_loss / double(it.num_batches())));
  }
  return stats;
}

float dataset_loss(nn::Model& model, const data::Dataset& ds,
                   const losses::HardLoss& loss, long batch_size,
                   Tensor* logits) {
  GOLDFISH_CHECK(!ds.empty(), "loss over an empty dataset");
  double total = 0.0;
  long batches = 0;
  const long n = ds.size();
  for (long lo = 0; lo < n; lo += batch_size) {
    const long hi = std::min(n, lo + batch_size);
    auto [x, yp] = ds.batch_view(lo, hi);
    const std::vector<long> y(yp, yp + (hi - lo));
    const Tensor& out = model.forward(x, /*train=*/false);
    if (logits != nullptr) {
      const long c = out.dim(1);
      if (lo == 0) logits->resize_uninit({n, c});
      std::copy(out.data(), out.data() + out.numel(),
                logits->data() + static_cast<std::size_t>(lo * c));
    }
    total += loss.eval(out, y).value;
    ++batches;
  }
  return static_cast<float>(total / double(batches));
}

}  // namespace goldfish::fl
