#include "fl/population/snapshot_store.h"

#include "tensor/check.h"
#include "tensor/serialize.h"

namespace goldfish::fl::population {

namespace {

/// 64-bit MurmurHash2 (MurmurHash64A) over the bytes read as little-endian
/// 8-byte words plus a byte tail: one multiply chain step per word rather
/// than per byte. Words are assembled from bytes, never loaded in host
/// order, so the content address is identical across machines (cross-run
/// comparisons depend on that).
std::uint64_t content_hash(const std::string& bytes) {
  constexpr std::uint64_t m = 0xC6A4A7935BD1E995ull;
  constexpr int r = 47;
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  const std::size_t n = bytes.size();
  const auto load = [p](std::size_t at, std::size_t len) {
    std::uint64_t w = 0;
    for (std::size_t i = 0; i < len; ++i)
      w |= static_cast<std::uint64_t>(p[at + i]) << (8 * i);
    return w;
  };
  std::uint64_t h = 0xCBF29CE484222325ull ^ (n * m);
  const std::size_t body = n & ~std::size_t{7};
  for (std::size_t at = 0; at < body; at += 8) {
    std::uint64_t k = load(at, 8);
    k *= m;
    k ^= k >> r;
    k *= m;
    h ^= k;
    h *= m;
  }
  if (n != body) {
    h ^= load(body, n - body);
    h *= m;
  }
  h ^= h >> r;
  h *= m;
  h ^= h >> r;
  return h;
}

}  // namespace

SnapshotStore::Handle SnapshotStore::intern(
    const std::vector<Tensor>& params) {
  serialize_tensors(params, scratch_);
  ++interned_total_;
  Handle h;
  h.hash = content_hash(scratch_);
  h.valid = true;
  std::vector<Entry>& chain = entries_[h.hash];
  for (std::size_t s = 0; s < chain.size(); ++s) {
    if (chain[s].refs > 0 && chain[s].data == scratch_) {
      // Dedup hit: the thousands of clients holding this replica share one
      // buffer; only the refcount grows.
      h.slot = static_cast<std::uint32_t>(s);
      ++chain[s].refs;
      ++refs_total_;
      return h;
    }
  }
  // New content. Reuse a dead chain slot if one exists (its handles have all
  // been released, so the slot index is free to re-issue).
  std::size_t slot = chain.size();
  for (std::size_t s = 0; s < chain.size(); ++s)
    if (chain[s].refs == 0) {
      slot = s;
      break;
    }
  if (slot == chain.size()) chain.emplace_back();
  chain[slot].data = scratch_;
  chain[slot].refs = 1;
  h.slot = static_cast<std::uint32_t>(slot);
  ++live_entries_;
  stored_bytes_ += chain[slot].data.size();
  ++refs_total_;
  return h;
}

const SnapshotStore::Entry& SnapshotStore::entry_at(const Handle& h) const {
  GOLDFISH_CHECK(h.valid, "invalid snapshot handle");
  const auto it = entries_.find(h.hash);
  GOLDFISH_CHECK(it != entries_.end() && h.slot < it->second.size() &&
                     it->second[h.slot].refs > 0,
                 "snapshot handle names a released entry");
  return it->second[h.slot];
}

void SnapshotStore::acquire(const Handle& h) {
  // entry_at validates liveness; the const_cast-free mutable lookup:
  GOLDFISH_CHECK(h.valid, "invalid snapshot handle");
  const auto it = entries_.find(h.hash);
  GOLDFISH_CHECK(it != entries_.end() && h.slot < it->second.size() &&
                     it->second[h.slot].refs > 0,
                 "snapshot handle names a released entry");
  ++it->second[h.slot].refs;
  ++refs_total_;
}

void SnapshotStore::release(const Handle& h) {
  if (!h.valid) return;
  const auto it = entries_.find(h.hash);
  GOLDFISH_CHECK(it != entries_.end() && h.slot < it->second.size() &&
                     it->second[h.slot].refs > 0,
                 "release of an already-dead snapshot handle");
  Entry& e = it->second[h.slot];
  --e.refs;
  --refs_total_;
  if (e.refs == 0) {
    stored_bytes_ -= e.data.size();
    --live_entries_;
    // Free the buffer now (swap, not clear: clear keeps capacity). The
    // chain node stays so sibling slots keep their indices; a fully-dead
    // chain is erased entirely.
    std::string().swap(e.data);
    bool any_live = false;
    for (const Entry& sib : it->second)
      if (sib.refs > 0) {
        any_live = true;
        break;
      }
    if (!any_live) entries_.erase(it);
  }
}

std::vector<Tensor> SnapshotStore::materialize(const Handle& h) const {
  const Entry& e = entry_at(h);
  return deserialize_tensors(e.data.data(), e.data.size());
}

long SnapshotStore::refcount(const Handle& h) const {
  if (!h.valid) return 0;
  const auto it = entries_.find(h.hash);
  if (it == entries_.end() || h.slot >= it->second.size()) return 0;
  return it->second[h.slot].refs;
}

}  // namespace goldfish::fl::population
