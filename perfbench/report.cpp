#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <thread>

#include "runtime/scheduler.h"
#include "tensor/buffer_pool.h"

namespace perfbench {
namespace {

// Linear-interpolated quantile of sorted samples.
double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * double(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - double(lo)) * (sorted[hi] - sorted[lo]);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";  // JSON has no NaN or infinity
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string cpu_model() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "unknown";
  char line[512];
  std::string model = "unknown";
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "model name", 10) == 0) {
      const char* colon = std::strchr(line, ':');
      if (colon != nullptr) {
        model = colon + 1;
        while (!model.empty() && (model.front() == ' ')) model.erase(0, 1);
        while (!model.empty() && (model.back() == '\n')) model.pop_back();
      }
      break;
    }
  }
  std::fclose(f);
  return model;
}

std::string isa() {
  std::string s;
#if defined(__x86_64__)
  s = "x86_64";
#elif defined(__aarch64__)
  s = "aarch64";
#else
  s = "other";
#endif
#ifdef __AVX512F__
  s += "+avx512f";
#endif
#ifdef __AVX2__
  s += "+avx2";
#endif
#ifdef __FMA__
  s += "+fma";
#endif
  return s;
}

}  // namespace

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return quantile(samples, 0.5);
}

std::vector<double> cycle_means(const std::vector<double>& samples,
                                std::size_t cycle) {
  std::vector<double> out;
  for (std::size_t i = 0; i + cycle <= samples.size(); i += cycle) {
    double sum = 0.0;
    for (std::size_t j = i; j < i + cycle; ++j) sum += samples[j];
    out.push_back(sum / double(cycle));
  }
  return out;
}

Summary summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  Summary s;
  s.n = samples.size();
  s.median = quantile(samples, 0.5);
  for (int p : {50, 75, 90, 95, 99}) {
    const double beyond = double(s.n) * (1.0 - p / 100.0);
    if (beyond >= 10.0) {
      s.tail_pct = p;
      s.tail = quantile(samples, p / 100.0);
    }
  }
  return s;
}

void Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  std::cout << "FAILED: " << what << "\n";
}

void Outcome::require(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::cout << "INCORRECT: " << what << "\n";
}

void print_timing(const std::string& name, const std::vector<double>& s,
                  const std::string& unit) {
  const Summary sum = summarize(s);
  std::cout << "  " << name << ": median " << json_number(sum.median) << " "
            << unit;
  if (sum.tail_pct > 0)
    std::cout << ", p" << sum.tail_pct << " " << json_number(sum.tail) << " "
              << unit;
  else
    std::cout << ", no tail percentile (fewer than 20 samples)";
  std::cout << " (n=" << sum.n << ")\n";
}

void print_value(const std::string& name, double value,
                 const std::string& unit, const std::string& note) {
  std::cout << "  " << name << ": " << json_number(value) << " " << unit;
  if (!note.empty()) std::cout << " (" << note << ")";
  std::cout << "\n";
}

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  std::fclose(f);
  return kb / 1024.0;
}

std::string fingerprint_json() {
  std::ostringstream o;
  o << "{\"nproc\": " << std::thread::hardware_concurrency()
    << ", \"cpu\": " << json_string(cpu_model())
    << ", \"isa\": " << json_string(isa())
    << ", \"compiler\": " << json_string("gcc-compatible " __VERSION__)
    << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
    << ", \"cxx_flags\": " << json_string(PERFBENCH_CXX_FLAGS)
    << ", \"scheduler_parallelism\": "
    << goldfish::runtime::Scheduler::global().parallelism()
    << ", \"alloc_stats\": "
    << (goldfish::alloc_stats::enabled() ? "true" : "false") << "}";
  return o.str();
}

std::string result_json(const Outcome& o) {
  std::ostringstream s;
  s << "{\"correct\": " << (o.correct ? "true" : "false")
    << ", \"attempted\": " << o.attempted << ", \"failed\": " << o.failed
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < o.metrics.size(); ++i) {
    const Metric& m = o.metrics[i];
    if (i > 0) s << ", ";
    s << json_string(m.name) << ": {\"value\": "
      << (m.value ? json_number(*m.value) : std::string("null"))
      << ", \"unit\": " << json_string(m.unit) << "}";
  }
  s << "}}";
  return s.str();
}

}  // namespace perfbench
