#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench::trace {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};

// Every thread that records gets one buffer, owned here so spans outlive
// the worker threads that wrote them.
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<std::vector<Span>>> g_buffers;

thread_local std::vector<Span>* t_buffer = nullptr;
thread_local std::uint64_t t_span = 0;
thread_local std::uint64_t t_request = 0;

std::vector<Span>& buffer() {
  if (t_buffer == nullptr) {
    auto owned = std::make_unique<std::vector<Span>>();
    owned->reserve(1 << 14);
    t_buffer = owned.get();
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::move(owned));
  }
  return *t_buffer;
}

// Length of the union of [start, end) intervals.
std::int64_t union_length(std::vector<std::pair<std::int64_t, std::int64_t>>& iv) {
  std::sort(iv.begin(), iv.end());
  std::int64_t covered = 0;
  std::int64_t lo = 0, hi = 0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (!open || s > hi) {
      if (open) covered += hi - lo;
      lo = s;
      hi = e;
      open = true;
    } else {
      hi = std::max(hi, e);
    }
  }
  if (open) covered += hi - lo;
  return covered;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

std::uint64_t new_id() {
  return g_next_id.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t current_request() { return t_request; }

void record(const Span& s) {
  if (enabled()) buffer().push_back(s);
}

Scope::Scope(const char* name) : Scope(name, t_span, t_request) {}

Scope::Scope(const char* name, std::uint64_t parent, std::uint64_t request) {
  if (!enabled()) return;
  on_ = true;
  span_.name = name;
  span_.id = new_id();
  span_.parent = parent;
  span_.request = request;
  saved_span_ = t_span;
  saved_request_ = t_request;
  t_span = span_.id;
  t_request = request;
  span_.start_ns = now_ns();
}

Scope::~Scope() {
  if (!on_) return;
  span_.end_ns = now_ns();
  t_span = saved_span_;
  t_request = saved_request_;
  buffer().push_back(span_);
}

RequestScope::RequestScope(std::uint64_t request) : saved_(t_request) {
  t_request = request;
}
RequestScope::~RequestScope() { t_request = saved_; }

std::vector<Span> drain() {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (auto& b : g_buffers) {
    out.insert(out.end(), b->begin(), b->end());
    b->clear();
  }
  return out;
}

std::map<std::string, Totals> totals_by_name(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : spans)
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);

  std::map<std::string, Totals> out;
  for (const Span& s : spans) {
    const std::int64_t dur = s.end_ns - s.start_ns;
    std::int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Clip children to the parent's interval: a cross-thread child may
      // straddle the parent's boundary by the clock-read gap.
      std::vector<std::pair<std::int64_t, std::int64_t>> iv;
      iv.reserve(it->second.size());
      for (auto [cs, ce] : it->second) {
        cs = std::max(cs, s.start_ns);
        ce = std::min(ce, s.end_ns);
        if (ce > cs) iv.emplace_back(cs, ce);
      }
      covered = union_length(iv);
    }
    Totals& t = out[s.name];
    t.inclusive_s += double(dur) * 1e-9;
    t.self_s += double(dur - covered) * 1e-9;
    ++t.count;
  }
  return out;
}

bool write_tsv(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("name\tid\tparent\trequest\tstart_ns\tend_ns\n", f);
  for (const Span& s : spans)
    std::fprintf(f, "%s\t%llu\t%llu\t%llu\t%lld\t%lld\n", s.name,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  return std::fclose(f) == 0;
}

}  // namespace perfbench::trace
