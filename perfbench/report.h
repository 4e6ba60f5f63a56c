// Result plumbing shared by the workloads: timing summaries, the metric
// list printed as the final JSON line, and the hardware/build fingerprint.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";  // trace and result files
};

/// Median and the highest of p50/p75/p90/p95/p99 with at least ten samples
/// beyond it (none when fewer than 20 samples).
struct Summary {
  std::size_t n = 0;
  double median = 0.0;
  int tail_pct = 0;  // 0 = no percentile has ten samples beyond it
  double tail = 0.0;
};
Summary summarize(std::vector<double> samples);
double median(std::vector<double> samples);
/// Means of consecutive groups of `cycle` samples (a trailing partial group
/// is dropped). A workload whose requests cycle through kinds with
/// different costs reports the median of these, which does not jump between
/// the kinds' modes the way the median of single requests does.
std::vector<double> cycle_means(const std::vector<double>& samples,
                                std::size_t cycle);

struct Metric {
  std::string name;
  std::optional<double> value;  // nullopt = missing (printed as null)
  std::string unit;
};

/// What one workload run hands back to main.
struct Outcome {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;  // the JSON metric block, in order

  void add(const std::string& name, std::optional<double> value,
           const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Count one operation against its quality target; a miss is printed
  /// with its reason and counted as failed.
  void check(bool ok, const std::string& what);
  /// A correctness check on the program's outputs: a violation is printed
  /// and makes the whole result incorrect.
  void require(bool ok, const std::string& what);
};

/// Print a timing line: name, median, tail percentile and sample count.
void print_timing(const std::string& name, const std::vector<double>& s,
                  const std::string& unit = "s");
/// Print a plain value line.
void print_value(const std::string& name, double value,
                 const std::string& unit, const std::string& note = "");

/// Peak resident set size of the process (VmHWM), in MiB.
double peak_rss_mb();

/// nproc, ISA, compiler, build type, Scheduler parallelism and whether the
/// allocation counter is compiled in, as one JSON object.
std::string fingerprint_json();

/// The final stdout line: the machine-readable result of the run.
std::string result_json(const Outcome& o);

}  // namespace perfbench
