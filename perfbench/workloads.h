// The benchmark's workloads. Each runs for Options::seconds, checks its
// outputs, and returns the metric block for the requested mode: the
// end-to-end metrics untraced, the per-layer metrics traced.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "fl/engine.h"
#include "report.h"
#include "trace.h"

namespace perfbench {

Outcome run_unlearn(const Options& opt, bool conv);
Outcome run_stream(const Options& opt);
Outcome run_shard(const Options& opt);

/// Wall-clock seconds since `start_ns`.
inline double seconds_since(std::int64_t start_ns) {
  return double(trace::now_ns() - start_ns) * 1e-9;
}

/// Bitwise equality of two StepResult streams (every field; doubles by
/// their bytes, so -0.0 and NaN payloads count).
bool same_steps(const std::vector<goldfish::fl::StepResult>& a,
                const std::vector<goldfish::fl::StepResult>& b);
bool same_bits(double a, double b);
/// Bitwise equality of two parameter snapshots.
bool same_params(const std::vector<goldfish::Tensor>& a,
                 const std::vector<goldfish::Tensor>& b);

/// Per-request span totals: name → self seconds (and inclusive seconds and
/// counts), built from the spans of one request.
struct LayerTimes {
  std::map<std::string, trace::Totals> by_name;
  double self(const char* name) const;
  double inclusive(const char* name) const;
  long count(const char* name) const;
};
LayerTimes layer_times(const std::vector<trace::Span>& spans);

/// For every client-update span, the gap between the start of the round
/// span that parents it and its own start.
std::vector<double> client_waits(const std::vector<trace::Span>& spans);

/// Collects per-request values of each per-layer metric and emits their
/// medians in declaration order.
class LayerMetrics {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// Report `name` as missing (null) instead of a number.
  void mark_missing(const std::string& name);
  /// Append every metric's median to `out`; names never added are emitted
  /// as 0 (the layer does no work on this workload).
  void emit(Outcome& out) const;

 private:
  std::map<std::string, std::vector<double>> values_;
  std::vector<std::string> missing_;
};

/// Close a traced pass: add trace.overhead_pct (traced over untraced
/// seconds of the same work, minus one), emit the per-layer block into
/// `out`, and write the spans to <out_dir>/<workload>-spans.tsv.
void finish_traced(LayerMetrics& lm, Outcome& out, const Options& opt,
                   const std::vector<trace::Span>& spans, double traced_s,
                   double untraced_s);

}  // namespace perfbench
