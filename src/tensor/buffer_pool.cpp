#include "tensor/buffer_pool.h"

#include <atomic>
#include <mutex>
#include <new>
#include <unordered_map>
#include <vector>

namespace goldfish {

namespace {

struct Pool {
  std::mutex mu;
  // Size-keyed free lists. Keys are the exact element counts the vector
  // allocator requested, so allocate/deallocate pairs always agree.
  std::unordered_map<std::size_t, std::vector<float*>> free;
  int scopes = 0;  // source of truth, guarded by mu
};

// Leaked on purpose: FloatBuffers with static storage duration may be freed
// after any static Pool would have been destroyed.
Pool& pool() {
  static Pool* p = new Pool;
  return *p;
}

// Fast-path hint mirroring Pool::scopes: lets alloc/free skip the mutex
// entirely when no scope is active (the common case outside FederatedSim).
// A stale read is harmless — a just-opened scope merely misses one recycle;
// a just-closed scope is re-checked under the lock.
std::atomic<int> g_scope_hint{0};

#ifdef GOLDFISH_ALLOC_STATS
std::atomic<std::size_t> g_heap_allocs{0};
#endif

float* heap_allocate(std::size_t n) {
#ifdef GOLDFISH_ALLOC_STATS
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
#endif
  return static_cast<float*>(::operator new(n * sizeof(float)));
}

}  // namespace

namespace detail {

float* pool_allocate_float(std::size_t n) {
  if (g_scope_hint.load(std::memory_order_relaxed) > 0) {
    Pool& p = pool();
    std::lock_guard<std::mutex> lock(p.mu);
    if (p.scopes > 0) {
      auto it = p.free.find(n);
      if (it != p.free.end() && !it->second.empty()) {
        float* ptr = it->second.back();
        it->second.pop_back();
        return ptr;
      }
    }
  }
  return heap_allocate(n);
}

void pool_deallocate_float(float* ptr, std::size_t n) noexcept {
  if (g_scope_hint.load(std::memory_order_relaxed) > 0) {
    Pool& p = pool();
    std::lock_guard<std::mutex> lock(p.mu);
    if (p.scopes > 0) {
      p.free[n].push_back(ptr);
      return;
    }
  }
  ::operator delete(ptr);
}

}  // namespace detail

BufferPoolScope::BufferPoolScope() {
  Pool& p = pool();
  std::lock_guard<std::mutex> lock(p.mu);
  ++p.scopes;
  g_scope_hint.store(p.scopes, std::memory_order_relaxed);
}

BufferPoolScope::~BufferPoolScope() {
  Pool& p = pool();
  std::unordered_map<std::size_t, std::vector<float*>> drained;
  {
    std::lock_guard<std::mutex> lock(p.mu);
    if (--p.scopes == 0) drained.swap(p.free);
    g_scope_hint.store(p.scopes, std::memory_order_relaxed);
  }
  for (auto& [n, ptrs] : drained)
    for (float* ptr : ptrs) ::operator delete(ptr);
}

void BufferPoolScope::reserve(std::size_t n, std::size_t count) {
  Pool& p = pool();
  std::lock_guard<std::mutex> lock(p.mu);
  std::vector<float*>& parked = p.free[n];
  while (parked.size() < count) parked.push_back(heap_allocate(n));
}

namespace alloc_stats {

bool enabled() {
#ifdef GOLDFISH_ALLOC_STATS
  return true;
#else
  return false;
#endif
}

std::size_t heap_allocations() {
#ifdef GOLDFISH_ALLOC_STATS
  return g_heap_allocs.load(std::memory_order_relaxed);
#else
  return 0;
#endif
}

}  // namespace alloc_stats

}  // namespace goldfish
