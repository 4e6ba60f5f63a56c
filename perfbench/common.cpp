#include <algorithm>
#include <cstring>
#include <iostream>
#include <stdexcept>

#include "tensor/buffer_pool.h"

#include "workloads.h"

namespace perfbench {
namespace {

struct LayerMetricSpec {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in the order the traced run prints them. The same
// list, with the same units, is BENCHMARK.json's per_layer block. Times are
// per request (unlearn-*, shard-delete) or per engine step (fl-stream),
// median over the traced pass; see README.md for each definition.
constexpr LayerMetricSpec kLayerMetrics[] = {
    {"core.distill_s", "s"},
    {"core.reference_loss_s", "s"},
    {"core.teacher_clone_s", "s"},
    {"core.epochs_run", "count"},
    {"core.early_stops", "count"},
    {"core.shard_retrain_s", "s"},
    {"core.shard_aggregate_s", "s"},
    {"core.shard_rows_retrained", "count"},
    {"core.shard_retrain_ratio", "ratio"},
    {"fl.round_s", "s"},
    {"fl.engine_self_s", "s"},
    {"fl.client_update_s", "s"},
    {"fl.client_wait_s", "s"},
    {"fl.wire_encode_s", "s"},
    {"fl.wire_decode_s", "s"},
    {"fl.wire_bytes", "bytes"},
    {"fl.aggregate_s", "s"},
    {"fl.update_yield", "ratio"},
    {"fl.dropped_updates", "count"},
    {"population.materialize_s", "s"},
    {"population.materializations", "count"},
    {"population.peak_resident_bytes", "bytes"},
    {"population.cold_bytes", "bytes"},
    {"nn.linear.fwd_s", "s"},
    {"nn.linear.bwd_s", "s"},
    {"nn.conv2d.fwd_s", "s"},
    {"nn.conv2d.bwd_s", "s"},
    {"nn.pool.fwd_s", "s"},
    {"nn.pool.bwd_s", "s"},
    {"nn.relu.fwd_s", "s"},
    {"nn.relu.bwd_s", "s"},
    {"nn.sgd_step_s", "s"},
    {"runtime.sgemm_s", "s"},
    {"runtime.sgemm_gflops", "GFLOP/s"},
    {"tensor.im2col_s", "s"},
    {"tensor.col2im_s", "s"},
    {"tensor.heap_allocs", "count"},
    {"losses.remaining_s", "s"},
    {"losses.forget_s", "s"},
    {"losses.hard_s", "s"},
    {"data.batch_s", "s"},
    {"data.split_s", "s"},
    {"metrics.eval_s", "s"},
    {"baselines.fim_s", "s"},
    {"baselines.b1_accuracy_pct", "%"},
    {"baselines.b2_accuracy_pct", "%"},
    {"trace.overhead_pct", "%"},
};

const LayerMetricSpec* find_spec(const std::string& name) {
  for (const LayerMetricSpec& s : kLayerMetrics)
    if (name == s.name) return &s;
  return nullptr;
}

}  // namespace

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_steps(const std::vector<goldfish::fl::StepResult>& a,
                const std::vector<goldfish::fl::StepResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    if (x.step != y.step || !same_bits(x.virtual_time, y.virtual_time) ||
        !same_bits(x.global_accuracy, y.global_accuracy) ||
        x.updates_consumed != y.updates_consumed ||
        !same_bits(x.mean_staleness, y.mean_staleness) ||
        x.max_staleness != y.max_staleness ||
        x.dropped_updates != y.dropped_updates ||
        x.bytes_uplinked != y.bytes_uplinked ||
        x.upload_bytes != y.upload_bytes ||
        !same_bits(x.encode_error, y.encode_error) ||
        x.active_clients != y.active_clients || x.aggregator != y.aggregator ||
        x.has_local_accuracy != y.has_local_accuracy ||
        !same_bits(x.min_local_accuracy, y.min_local_accuracy) ||
        !same_bits(x.max_local_accuracy, y.max_local_accuracy) ||
        !same_bits(x.mean_local_accuracy, y.mean_local_accuracy) ||
        x.has_audit != y.has_audit ||
        !same_bits(x.attack_success, y.attack_success) ||
        !same_bits(x.mia_auc, y.mia_auc) ||
        !same_bits(x.mia_accuracy, y.mia_accuracy))
      return false;
  }
  return true;
}

bool same_params(const std::vector<goldfish::Tensor>& a,
                 const std::vector<goldfish::Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!a[i].same_shape(b[i])) return false;
    if (std::memcmp(a[i].data(), b[i].data(), a[i].numel() * sizeof(float)) !=
        0)
      return false;
  }
  return true;
}

double LayerTimes::self(const char* name) const {
  auto it = by_name.find(name);
  return it == by_name.end() ? 0.0 : it->second.self_s;
}
double LayerTimes::inclusive(const char* name) const {
  auto it = by_name.find(name);
  return it == by_name.end() ? 0.0 : it->second.inclusive_s;
}
long LayerTimes::count(const char* name) const {
  auto it = by_name.find(name);
  return it == by_name.end() ? 0 : it->second.count;
}

LayerTimes layer_times(const std::vector<trace::Span>& spans) {
  return LayerTimes{trace::totals_by_name(spans)};
}

std::vector<double> client_waits(const std::vector<trace::Span>& spans) {
  std::map<std::uint64_t, std::int64_t> round_start;
  for (const trace::Span& s : spans)
    if (std::strcmp(s.name, "fl.round") == 0) round_start[s.id] = s.start_ns;
  std::vector<double> waits;
  for (const trace::Span& s : spans) {
    if (std::strcmp(s.name, "fl.client_update") != 0) continue;
    auto it = round_start.find(s.parent);
    if (it == round_start.end()) continue;
    waits.push_back(double(std::max<std::int64_t>(0, s.start_ns - it->second)) *
                    1e-9);
  }
  return waits;
}

void LayerMetrics::add(const std::string& name, double value,
                       const std::string& unit) {
  const LayerMetricSpec* spec = find_spec(name);
  if (spec == nullptr || unit != spec->unit)
    throw std::logic_error("undeclared per-layer metric " + name + " [" +
                           unit + "]");
  values_[name].push_back(value);
}

void LayerMetrics::mark_missing(const std::string& name) {
  missing_.push_back(name);
}

void LayerMetrics::emit(Outcome& out) const {
  for (const LayerMetricSpec& s : kLayerMetrics) {
    auto it = values_.find(s.name);
    if (std::find(missing_.begin(), missing_.end(), s.name) != missing_.end())
      out.add(s.name, std::nullopt, s.unit);
    else
      out.add(s.name, it == values_.end() ? 0.0 : median(it->second), s.unit);
  }
}

void finish_traced(LayerMetrics& lm, Outcome& out, const Options& opt,
                   const std::vector<trace::Span>& spans, double traced_s,
                   double untraced_s) {
  if (!goldfish::alloc_stats::enabled()) lm.mark_missing("tensor.heap_allocs");
  lm.add("trace.overhead_pct", (traced_s / untraced_s - 1.0) * 100.0, "%");
  lm.emit(out);
  const std::string path = opt.out_dir + "/" + opt.workload + "-spans.tsv";
  if (trace::write_tsv(spans, path))
    std::cout << "traced pass: " << spans.size() << " spans written to "
              << path << "\n";
  else
    std::cout << "traced pass: could not write " << path << "\n";
}

}  // namespace perfbench
