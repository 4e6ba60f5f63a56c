// Unit-cost probes for the layers the benchmark cannot bracket with a span
// from outside the library (the GEMM kernel, im2col/col2im inside Conv2d,
// the server's aggregation, client materialization inside the engine).
// Each times the layer's public function at the shapes the workload uses;
// the traced run multiplies the unit cost by the work it counted.
#pragma once

#include <string>
#include <vector>

#include "data/dataset.h"
#include "report.h"
#include "timed.h"
#include "trace.h"

namespace perfbench {

/// runtime::sgemm throughput (GFLOP/s) over the forward GEMM shapes of every
/// linear/conv layer in `costs` at `batch` rows.
double probe_gemm_gflops(const ModelCosts& costs, long batch);

/// Seconds per input row of im2col_into / col2im_into at a conv layer's
/// geometry, measured on a `batch`-row tensor.
double probe_im2col_per_row(const LayerCost& conv, long batch);
double probe_col2im_per_row(const LayerCost& conv, long batch);

/// Seconds for one server aggregation of `k` updates shaped like `like`
/// under `aggregator` (fl::make_aggregator names), including the per-update
/// MSE scoring on `test` when the strategy needs it.
double probe_aggregate(const std::string& aggregator, const nn::Model& like,
                       const data::Dataset& test, long k);

/// Seconds for one server-side accuracy evaluation of `model` on `test`
/// (metrics::BatchedEvaluator, as the engine runs after every aggregation).
double probe_eval(const nn::Model& model, const data::Dataset& test);

/// Median seconds per call of `fn`, called until `budget_s` has elapsed
/// and at least `min_reps` times.
template <class Fn>
double time_median(Fn&& fn, double budget_s = 0.05, int min_reps = 5) {
  std::vector<double> t;
  const std::int64_t start = trace::now_ns();
  while (int(t.size()) < min_reps ||
         double(trace::now_ns() - start) * 1e-9 < budget_s) {
    const std::int64_t t0 = trace::now_ns();
    fn();
    t.push_back(double(trace::now_ns() - t0) * 1e-9);
  }
  return median(std::move(t));
}

}  // namespace perfbench
