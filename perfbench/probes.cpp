#include "probes.h"

#include "fl/aggregation.h"
#include "metrics/evaluation.h"
#include "runtime/gemm.h"
#include "runtime/scheduler.h"
#include "tensor/ops.h"

namespace perfbench {

double probe_gemm_gflops(const ModelCosts& costs, long batch) {
  Rng rng(0x6E33);
  double flops = 0.0, seconds = 0.0;
  for (const auto& l : costs.layers) {
    long m = 0, n = 0, k = 0;
    if (l->kind == LayerCost::kLinear) {
      m = batch;  // (batch × in) · (in × out)
      n = l->out;
      k = l->in;
    } else if (l->kind == LayerCost::kConv) {
      m = l->out;  // (outC × patch) · (patch × batch·outH·outW)
      n = batch * l->geom.out_h() * l->geom.out_w();
      k = l->geom.patch_size();
    } else {
      continue;
    }
    const Tensor a = Tensor::randn({m, k}, rng);
    const Tensor b = Tensor::randn({k, n}, rng);
    Tensor c = Tensor::uninit({m, n});
    const double t = time_median([&] {
      runtime::sgemm(false, false, m, n, k, a.data(), k, b.data(), n,
                     c.data(), n, 0.0f, runtime::Epilogue::kNone, nullptr);
    });
    flops += 2.0 * double(m) * double(n) * double(k);
    seconds += t;
  }
  return seconds > 0.0 ? flops / seconds * 1e-9 : 0.0;
}

double probe_im2col_per_row(const LayerCost& conv, long batch) {
  Rng rng(0x12C);
  const Conv2dGeom& g = conv.geom;
  const Tensor img = Tensor::randn({batch, g.in_channels, g.in_h, g.in_w}, rng);
  Tensor cols;
  return time_median([&] { im2col_into(img, g, cols); }) / double(batch);
}

double probe_col2im_per_row(const LayerCost& conv, long batch) {
  Rng rng(0xC21);
  const Conv2dGeom& g = conv.geom;
  const Tensor cols =
      Tensor::randn({g.patch_size(), batch * g.out_h() * g.out_w()}, rng);
  Tensor img;
  return time_median([&] { col2im_into(cols, batch, g, img); }) /
         double(batch);
}

double probe_aggregate(const std::string& aggregator, const nn::Model& like,
                       const data::Dataset& test, long k) {
  const auto agg = fl::make_aggregator(aggregator);
  const metrics::BatchedEvaluator eval(test);
  Rng rng(0xA66);
  std::vector<fl::ClientUpdate> updates(static_cast<std::size_t>(k));
  std::vector<nn::Model> scratch(static_cast<std::size_t>(k), like);
  for (fl::ClientUpdate& u : updates) {
    u.params = like.snapshot();
    for (Tensor& t : u.params)
      for (std::size_t j = 0; j < t.numel(); ++j)
        t[j] += 0.01f * rng.normal();
    u.dataset_size = 100;
  }
  return time_median([&] {
    if (agg->capabilities().needs_mse)
      runtime::Scheduler::global().parallel_map(
          updates.size(),
          [&](std::size_t i) {
            scratch[i].load(updates[i].params);
            updates[i].mse = eval.mse(scratch[i]);
          },
          /*grain=*/1);
    const std::vector<Tensor> merged = agg->aggregate(updates);
    (void)merged;
  });
}

double probe_eval(const nn::Model& model, const data::Dataset& test) {
  nn::Model m = model;
  const metrics::BatchedEvaluator eval(test);
  return time_median([&] { eval.accuracy(m); });
}

}  // namespace perfbench
