// Recycling pool for Tensor storage (FloatBuffer) plus an allocation
// counter, the substrate of the zero-allocation federated round loop.
//
// While at least one BufferPoolScope is alive, every FloatBuffer that is
// freed parks its storage in a process-wide, size-keyed free list instead of
// returning it to the heap, and every FloatBuffer allocation of a size seen
// before is served from that list. A steady-state workload that allocates
// the same multiset of sizes each iteration (an FL round: batch tensors,
// loss temporaries, optimizer state, snapshot/upload copies) therefore stops
// touching the heap after its first iteration. When the last scope closes
// the parked storage is released.
//
// The pool is deliberately global rather than thread-local: client tasks are
// assigned to scheduler threads dynamically and client uploads are freed on
// the aggregating thread, so buffers must be able to migrate between threads
// to reach a zero-allocation fixed point. Traffic is coarse (whole tensors,
// thousands of events per round, not millions), so one mutex is cheap.
//
// The counter tracks *heap* allocations only (pool hits are free); it is
// compiled in when GOLDFISH_ALLOC_STATS is defined (CMake option, default
// ON) and is how bench_fl_round and the CI ratchet assert that a steady
// round performs zero heap allocations.
#pragma once

#include <cstddef>

namespace goldfish {

namespace detail {

/// Allocate storage for `n` floats: from the recycling pool when a scope is
/// active and a same-size block is parked, from the heap otherwise.
float* pool_allocate_float(std::size_t n);

/// Release storage for `n` floats: parked in the pool when a scope is
/// active, returned to the heap otherwise.
void pool_deallocate_float(float* p, std::size_t n) noexcept;

}  // namespace detail

/// RAII activation of FloatBuffer recycling; scopes nest (refcounted), and
/// parked storage is released when the last one closes. FederatedSim holds
/// one for its lifetime so rounds recycle across run_round calls.
class BufferPoolScope {
 public:
  BufferPoolScope();
  ~BufferPoolScope();
  BufferPoolScope(const BufferPoolScope&) = delete;
  BufferPoolScope& operator=(const BufferPoolScope&) = delete;

  /// Top the parked blocks of `n` floats up to `count`, so a workload that
  /// never holds more than `count` of them at once never misses, however
  /// its threads interleave.
  void reserve(std::size_t n, std::size_t count);
};

namespace alloc_stats {

/// True when the library was built with GOLDFISH_ALLOC_STATS.
bool enabled();

/// Number of FloatBuffer allocations that hit the heap (pool misses
/// included, pool hits not) since process start. Always 0 when !enabled().
std::size_t heap_allocations();

}  // namespace alloc_stats

}  // namespace goldfish
