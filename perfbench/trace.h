// In-memory span recorder for the traced benchmark run.
//
// A span is (name, start, end, parent, request id). Spans are appended to
// per-thread buffers without locking, kept in memory for the whole traced
// pass, and written out once at the end. A layer's self time is its span's
// duration minus the part of that interval its child spans cover (the union
// of the children, so parallel children on worker threads are not counted
// twice). When tracing is off every Scope is a single branch.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench::trace {

struct Span {
  const char* name = nullptr;  // string literal, compared by content
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Monotonic nanoseconds (steady_clock).
std::int64_t now_ns();

bool enabled();
void set_enabled(bool on);

/// A fresh span id (never 0).
std::uint64_t new_id();

/// The calling thread's current request (0 when none).
std::uint64_t current_request();

/// Append a finished span to the calling thread's buffer (no-op when
/// tracing is off). Used for intervals that no single scope brackets, such
/// as an engine round, which runs from one sink call to the next.
void record(const Span& s);

/// RAII span on the calling thread. The parent and request default to the
/// thread's innermost open span; a span opened on a worker thread on behalf
/// of a span on another thread passes both explicitly.
class Scope {
 public:
  explicit Scope(const char* name);
  Scope(const char* name, std::uint64_t parent, std::uint64_t request);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint64_t id() const { return span_.id; }

 private:
  Span span_;
  bool on_ = false;
  std::uint64_t saved_span_ = 0;
  std::uint64_t saved_request_ = 0;
};

/// Make `request` the calling thread's current request for the lifetime of
/// the object (spans opened without an explicit request inherit it).
class RequestScope {
 public:
  explicit RequestScope(std::uint64_t request);
  ~RequestScope();
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  std::uint64_t saved_;
};

/// Move every recorded span out of all thread buffers. Call only while no
/// traced work is running.
std::vector<Span> drain();

/// Per-name totals over a set of spans: inclusive time, self time (span
/// minus the union of its children), and span count.
struct Totals {
  double inclusive_s = 0.0;
  double self_s = 0.0;
  long count = 0;
};
std::map<std::string, Totals> totals_by_name(const std::vector<Span>& spans);

/// Write spans as tab-separated lines (name, id, parent, request, start_ns,
/// end_ns) to `path`, replacing the file. Returns false on I/O failure.
bool write_tsv(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench::trace
