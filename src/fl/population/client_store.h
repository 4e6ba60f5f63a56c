// Client-state store: the engine's only client storage (the population
// subsystem's capacity layer, docs/population.md).
//
// A population-scale federation registers far more clients than ever train
// concurrently. A *cold* record (add()) keeps a client as one compact byte
// string ("GFP1" header + GFT1 tensor records, byte-identical to the
// checkpoint format in tensor/serialize.h), materialized into a pooled slot
// only while it is in the active cohort: resident memory is O(cohort), the
// cold side a flat ~features + labels + 72 header bytes per client. A *live*
// record (adopt()) pins its Dataset in a slot for good and keeps only the
// header, so telemetry patches work alike. The store never converts one form
// into the other.
//
// Layout of one record (all little-endian; offsets fixed so telemetry can be
// patched in place without touching the tensor payload):
//
//   offset  size  field
//        0     4  magic "GFP1" (0x31504647)
//        4     4  reserved (zero)
//        8     8  num_classes            (i64)
//       16    24  geom channels/height/width (3 × i64)
//       40     8  tasks_started          (i64, durable telemetry)
//       48     8  updates_aggregated     (i64)
//       56     8  bytes_uplinked         (u64)
//       64     8  last_version           (i64, -1 = never downloaded)
//       72     …  features as one GFT1 record       (cold records only)
//        …     …  labels as one GFT1 record (floats; exact below 2^24)
//
// Telemetry mutations (bump_* / set_last_version) rewrite only the 32 header
// bytes at offsets 40..72 — a cold client's durable counters advance without
// decoding a single tensor. Likewise replace() overwrites the whole record
// from a fresh Dataset without reading the old bytes, which is what lets a
// DeletionEvent on a cold client evict state at byte-blit cost (the
// "no forced materialization" fix, tests/population_test.cpp pins it via the
// materializations() lifetime counter).
//
// Not thread-safe by design: the engine materializes cohort members on the
// main thread while building a run (materialize_epochs) and commits
// telemetry/replacements after the run, the same single-threaded seams all
// durable engine state uses.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "fl/population/snapshot_store.h"
#include "tensor/annotations.h"

namespace goldfish::fl::population {

class ClientStateStore {
 public:
  /// Durable per-client counters, persisted in the record header.
  struct Telemetry {
    long tasks_started = 0;
    long updates_aggregated = 0;
    std::uint64_t bytes_uplinked = 0;
    long last_version = -1;  ///< broadcast version last downloaded
  };

  /// Register a client: spill `ds` to a fresh cold record. Returns the
  /// client id (dense, 0-based, stable for the store's lifetime).
  std::size_t add(const data::Dataset& ds);

  /// Register a live client: `ds` is pinned in a slot as is, never spilled,
  /// decoded or released. Ids come from the same dense sequence as add().
  std::size_t adopt(data::Dataset ds);

  std::size_t num_clients() const { return records_.size(); }

  /// Decode client `id` into a pooled resident slot and return the live
  /// dataset. Idempotent while resident (returns the same slot). The slot's
  /// tensors are reused across occupants via resize_uninit, so steady-state
  /// cohort turnover performs zero heap allocations once every shape has
  /// been seen. A live client's dataset is returned as is: no decode, and
  /// materializations() does not move.
  GOLDFISH_HOT const data::Dataset& materialize(std::size_t id);

  /// True while `id` occupies a slot (always, for a live record).
  bool resident(std::size_t id) const;

  /// A live client's dataset, or null for a cold record.
  const data::Dataset* live(std::size_t id) const;

  /// Return `id`'s slot to the free list (storage retained for the next
  /// occupant). No-op if not resident, and for live records.
  void release(std::size_t id);

  /// Release every materialized slot (end-of-run cohort teardown); live
  /// records keep theirs.
  void release_all();

  /// Swap client `id`'s data for `ds`, keeping the record's form and its
  /// telemetry (the departed client's audit trail survives its data
  /// deletion). A live record is move-assigned; a cold one is re-spilled
  /// WITHOUT decoding the old bytes, its stale resident slot freed first.
  void replace(std::size_t id, data::Dataset ds);

  /// Durable telemetry, readable hot or cold.
  Telemetry telemetry(std::size_t id) const;
  void bump_tasks_started(std::size_t id, long n);
  void bump_updates_aggregated(std::size_t id, long n);
  void bump_bytes_uplinked(std::size_t id, std::uint64_t n);
  void set_last_version(std::size_t id, long version);

  /// The client's reference-snapshot handle (for DeltaWire's
  /// needs_reference() path; owned by the caller via SnapshotStore
  /// acquire/release — the store only records it).
  const SnapshotStore::Handle& reference(std::size_t id) const;
  void set_reference(std::size_t id, const SnapshotStore::Handle& h);

  /// Size of client `id`'s cold record in bytes.
  std::size_t record_bytes(std::size_t id) const;

  /// Total bytes across all cold records.
  std::size_t cold_bytes() const { return cold_bytes_; }
  /// Bytes held by materialized cold datasets right now (not live ones).
  std::size_t resident_bytes() const { return resident_bytes_; }
  /// High-water mark of resident_bytes() over the store's lifetime.
  std::size_t peak_resident_bytes() const { return peak_resident_bytes_; }
  /// Number of cold clients currently materialized.
  std::size_t resident_clients() const { return resident_clients_; }
  /// Lifetime cold→hot decode count. A DeletionEvent on a cold client must
  /// NOT advance this (the eviction-without-materialization contract).
  std::size_t materializations() const { return materializations_; }

 private:
  struct Record {
    std::string bytes;                 ///< GFP1 header (+ GFT1 tensors if cold)
    int slot = -1;                     ///< resident slot, -1 when not resident
    bool live = false;                 ///< adopted: pinned in `slot` for good
    SnapshotStore::Handle reference;   ///< caller-owned snapshot ref
  };
  struct Slot {
    data::Dataset ds;
    std::size_t owner = 0;
    std::size_t bytes = 0;  ///< live dataset bytes of the current occupant
  };

  GOLDFISH_HOT void spill(const data::Dataset& ds, const Telemetry& t,
                          std::string& out);

  // deque: materialize() hands out references into slots, which must stay
  // valid while later cohort members materialize into new slots.
  std::deque<Slot> slots_;
  std::vector<int> free_slots_;
  std::vector<Record> records_;
  Tensor label_tensor_;  ///< scratch for decoding the labels GFT1 record
  std::size_t cold_bytes_ = 0;
  std::size_t resident_bytes_ = 0;
  std::size_t peak_resident_bytes_ = 0;
  std::size_t resident_clients_ = 0;
  std::size_t materializations_ = 0;
};

}  // namespace goldfish::fl::population
