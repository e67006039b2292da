// KISS-Tree (§2.2; Kissinger et al. [9]).
//
// A prefix-tree-derived index specialized for 32-bit keys with exactly two
// levels: the first key fragment (26 bits by default) directly indexes a
// *virtually allocated* root array of 32-bit compact pointers; the second
// fragment (remaining 6 bits) indexes the level-2 node. A key lookup thus
// needs at most 3 memory accesses (root entry, level-2 node, content),
// versus up to 9 for a k'=4 prefix tree on 32-bit keys.
//
// The root array is 2^26 x 4 B = 256 MiB of *virtual* memory, mapped with
// MAP_NORESERVE so physical 4 KiB pages materialize only when a pointer is
// first written — the paper's on-demand allocation trick. root_bits is
// configurable so tests can run tiny trees.
//
// Level-2 nodes come in two flavors:
//   * uncompressed — a flat array of 2^(32-root_bits) entries, updated in
//     place. QPPT uses this for dense key ranges to avoid copy overhead.
//   * bitmask-compressed — {bitmask, packed entries[popcount]}; adding a
//     slot performs an RCU-style copy of the node and swaps the compact
//     pointer, as in the original KISS-Tree.
//
// Entries hold either a single inline value (low bit tagged) or a pointer
// to a §2.4 duplicate ValueList / aggregation payload. Inline values must
// fit in 63 bits (true for rids and arena offsets).

#ifndef QPPT_INDEX_KISS_TREE_H_
#define QPPT_INDEX_KISS_TREE_H_

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "dbg/tsan.h"
#include "index/duplicate_chain.h"
#include "util/arena.h"
#include "util/prefetch.h"

namespace qppt {

// Slab allocator addressed by 32-bit compact handles (8-byte granularity),
// used for level-2 nodes so root entries stay 4 bytes. Chunks are anonymous
// MAP_NORESERVE mappings, so allocations come back zero-filled and physical
// pages materialize only when a slot is first written — the same on-demand
// allocation trick the paper uses for the root array. This is what keeps
// wide uncompressed level-2 nodes (small root_bits) cheap on sparse keys.
//
// The chunk directory is itself a fixed MAP_NORESERVE mapping (256 KiB
// virtual for the maximal 32 Ki chunks, created on first Allocate so
// empty slabs stay free to construct), so Resolve() never observes a
// reallocating container — the property the partitioned parallel merge
// relies on when workers Allocate() (mutex-guarded, opt-in) while other
// workers Resolve() handles concurrently.
class CompactSlab {
 public:
  static constexpr size_t kChunkBytes = size_t{1} << 20;  // 1 MiB
  static constexpr size_t kGranularity = 8;
  static constexpr uint32_t kNullHandle = 0;

  CompactSlab() = default;
  ~CompactSlab();
  CompactSlab(const CompactSlab&) = delete;
  CompactSlab& operator=(const CompactSlab&) = delete;
  CompactSlab(CompactSlab&& other) noexcept;
  CompactSlab& operator=(CompactSlab&&) = delete;

  // Allocates `bytes` (rounded up to 8) of zero-filled memory and returns
  // a non-zero handle. Handles are never freed (the tree's RCU garbage
  // stays in the slab), so every allocation is virgin zero pages.
  uint32_t Allocate(size_t bytes);

  // Same contract as Arena::set_concurrent(): while on, Allocate() is
  // mutex-guarded so concurrent merge workers can share the slab.
  void set_concurrent(bool on) {
    if (on && mu_ == nullptr) mu_ = std::make_unique<std::mutex>();
    concurrent_ = on;
  }

  void* Resolve(uint32_t handle) {
    uint32_t unit = handle - 1;
    return chunk_dir_[unit >> kUnitsPerChunkLog2] +
           (unit & (kUnitsPerChunk - 1)) * kGranularity;
  }
  const void* Resolve(uint32_t handle) const {
    return const_cast<CompactSlab*>(this)->Resolve(handle);
  }

  size_t bytes_reserved() const { return num_chunks_ * kChunkBytes; }

  // Physical bytes actually materialized by the OS (resident pages, via
  // mincore). With lazy-zero chunks this is what a sparse tree truly
  // costs; bytes_reserved() only counts virtual reservation.
  size_t bytes_resident() const;

 private:
  static constexpr size_t kUnitsPerChunk = kChunkBytes / kGranularity;
  static constexpr size_t kUnitsPerChunkLog2 = 17;
  static_assert((size_t{1} << kUnitsPerChunkLog2) == kUnitsPerChunk);
  // 2^32 addressable units / units per chunk = most chunks a slab can hold.
  static constexpr size_t kMaxChunks =
      (uint64_t{1} << 32) / kUnitsPerChunk;

  uint32_t AllocateLocked(size_t bytes);

  char** chunk_dir_ = nullptr;  // MAP_NORESERVE array of kMaxChunks slots
  size_t num_chunks_ = 0;
  size_t used_in_chunk_ = kChunkBytes;  // forces allocation on first use
  bool concurrent_ = false;
  std::unique_ptr<std::mutex> mu_;  // created lazily by set_concurrent
};

class KissTree {
 public:
  enum class PayloadMode : uint8_t { kValues, kAggregate };

  // Root entries and level-2 entry slots are shared with lock-free
  // readers: the single writer (engine write path, §7's no-rebalancing
  // argument) publishes with release stores, readers load with acquire.
  // On x86 both compile to plain moves.
  static uint32_t LoadRootSlot(const uint32_t* p) {
    uint32_t v = __atomic_load_n(p, __ATOMIC_ACQUIRE);
    QPPT_TSAN_ACQUIRE(p);
    return v;
  }
  // pairs-with: kiss-root-slot (scripts/analyze/atomics_pairs.txt)
  static void StoreRootSlot(uint32_t* p, uint32_t v) {
    QPPT_TSAN_RELEASE(p);
    __atomic_store_n(p, v, __ATOMIC_RELEASE);
  }
  static uint64_t LoadEntry(const uint64_t* p) {
    uint64_t v = __atomic_load_n(p, __ATOMIC_ACQUIRE);
    QPPT_TSAN_ACQUIRE(p);
    return v;
  }
  // pairs-with: kiss-l2-entry (scripts/analyze/atomics_pairs.txt)
  static void StoreEntry(uint64_t* p, uint64_t v) {
    QPPT_TSAN_RELEASE(p);
    __atomic_store_n(p, v, __ATOMIC_RELEASE);
  }

  struct Config {
    size_t root_bits = 26;  // level-1 fragment width (paper: 26)
    PayloadMode mode = PayloadMode::kValues;
    size_t agg_payload_size = 0;
    // Bitmask-compress level-2 nodes (RCU copy on slot addition). QPPT
    // disables this for dense value ranges (§2.2).
    bool compress = false;
  };

  KissTree() : KissTree(Config{}) {}
  explicit KissTree(Config config);
  ~KissTree();

  KissTree(const KissTree&) = delete;
  KissTree& operator=(const KissTree&) = delete;
  KissTree(KissTree&& other) noexcept;
  KissTree& operator=(KissTree&&) = delete;

  const Config& config() const { return config_; }
  size_t num_keys() const {
    // relaxed: advisory statistic; staleness only widens a scan bound.
    return num_keys_.load(std::memory_order_relaxed);
  }
  uint32_t min_key() const {
    // relaxed: advisory scan bound (see num_keys).
    return min_key_.load(std::memory_order_relaxed);
  }
  uint32_t max_key() const {
    // relaxed: advisory scan bound (see num_keys).
    return max_key_.load(std::memory_order_relaxed);
  }
  bool empty() const { return num_keys() == 0; }

  // Bytes of physical memory attributable to the tree (slab + value arena
  // + touched root pages; the untouched remainder of the 256 MiB root is
  // virtual only).
  size_t MemoryUsage() const;

  // --- kValues mode -------------------------------------------------------

  // Appends `value` to the multiset at `key`. value < 2^63.
  void Insert(uint32_t key, uint64_t value);

  // Insert-or-update: sets `key`'s values to exactly {value} (Fig. 3(a)).
  void Upsert(uint32_t key, uint64_t value);

  // Resolved view of a key's values.
  class ValueRef {
   public:
    ValueRef() = default;
    ValueRef(uint64_t inline_value, const ValueList* list)
        : inline_value_(inline_value), list_(list) {}

    uint32_t size() const {
      return list_ != nullptr ? list_->size() : 1;
    }
    template <typename F>
    void ForEach(F&& fn) const {
      if (list_ != nullptr) {
        list_->ForEach(fn);
      } else {
        fn(inline_value_);
      }
    }
    uint64_t front() const {
      return list_ != nullptr ? list_->first() : inline_value_;
    }
    // The duplicate list, or nullptr when the entry holds its one value
    // inline (then front() is that value).
    const ValueList* list() const { return list_; }

   private:
    uint64_t inline_value_ = 0;
    const ValueList* list_ = nullptr;
  };

  // Returns true and fills `*out` if `key` is present.
  bool Lookup(uint32_t key, ValueRef* out) const;
  bool Contains(uint32_t key) const {
    ValueRef ignored;
    return Lookup(key, &ignored);
  }

  // --- kAggregate mode ------------------------------------------------------

  // Returns the payload accumulator for `key`, creating a zero-filled one
  // if absent (*created reports which).
  std::byte* FindOrCreatePayload(uint32_t key, bool* created);
  const std::byte* FindPayload(uint32_t key) const;

  // --- scans ----------------------------------------------------------------

  // In-order traversal. F: void(uint32_t key, const ValueRef&) for kValues
  // trees; use ScanPayloads for kAggregate trees.
  template <typename F>
  void ScanAll(F&& fn) const {
    ScanRangeImpl(0, std::numeric_limits<uint32_t>::max(), fn);
  }
  template <typename F>
  void ScanRange(uint32_t lo, uint32_t hi, F&& fn) const {
    ScanRangeImpl(lo, hi, fn);
  }

  // F: void(uint32_t key, const std::byte* payload), ascending key order.
  template <typename F>
  void ScanPayloads(F&& fn) const;

  // --- batch processing (§2.3) -----------------------------------------------

  struct LookupJob {
    uint32_t key = 0;     // in
    bool found = false;   // out
    ValueRef values;      // out (valid if found)
    // internal
    uint32_t l2_handle = 0;
  };

  // Software-pipelined batch lookup: round 1 prefetches all root entries,
  // round 2 resolves them and prefetches the level-2 slots, round 3 reads
  // the entries. Hides DRAM latency when the tree exceeds the caches.
  void BatchLookup(std::span<LookupJob> jobs) const;

  struct UpsertJob {
    uint32_t key = 0;
    uint64_t value = 0;
  };
  // Batched insert-or-update with the same prefetch pipeline.
  void BatchUpsert(std::span<UpsertJob> jobs);

  // Batched duplicate-append (kValues).
  void BatchInsert(std::span<UpsertJob> jobs);

  // --- partitioned parallel merge support (engine layer) ----------------------
  //
  // Between BeginConcurrentInserts() and EndConcurrentInserts(),
  // InsertForMerge() may be called from multiple threads as long as each
  // caller stays within a disjoint, root-bucket-aligned key range (so no
  // two callers ever touch the same level-2 node; allocators are
  // mutex-guarded while the window is open). Key statistics
  // (num_keys/min/max) are NOT updated by InsertForMerge — callers
  // accumulate the returned created-key counts and apply them once via
  // AddMergedKeyStats() after the fork-join.

  void BeginConcurrentInserts();
  void EndConcurrentInserts();
  // Appends like Insert(); returns true when `key` was new.
  bool InsertForMerge(uint32_t key, uint64_t value);
  // FindOrCreatePayload without the key-statistics update (kAggregate
  // mode) — the aggregated partitioned merge's per-range workers create
  // groups concurrently and fold the created-key counts back in via
  // AddMergedKeyStats() after the fork-join.
  std::byte* FindOrCreatePayloadForMerge(uint32_t key, bool* created);
  // Folds externally accumulated key statistics back in. [lo, hi] is the
  // key span the merged tuples came from (ignored when new_keys == 0).
  void AddMergedKeyStats(size_t new_keys, uint32_t lo, uint32_t hi);

  // --- structural access for the synchronous index scan (§4.2) ---------------

  size_t root_size() const { return root_size_; }
  size_t level2_bits() const { return level2_bits_; }
  // Compact pointer of root bucket i (0 = empty).
  uint32_t RootEntry(size_t i) const { return LoadRootSlot(&root_[i]); }
  const uint32_t* root_data() const { return root_; }

  // Iterates the used slots of the level-2 node behind root entry
  // `handle`. F: void(uint32_t slot, uint64_t entry).
  template <typename F>
  void ForEachLevel2Slot(uint32_t handle, F&& fn) const;

  // Entry at `slot` of the level-2 node behind `handle` (0 = empty).
  uint64_t Level2Entry(uint32_t handle, uint32_t slot) const {
    if (handle == CompactSlab::kNullHandle) return 0;
    if (!config_.compress) {
      return LoadEntry(UncompressedEntries(handle) + slot);
    }
    const uint64_t* node = UncompressedEntries(handle);
    uint64_t mask = LoadEntry(node);
    uint64_t slot_bit = uint64_t{1} << slot;
    if (!(mask & slot_bit)) return 0;
    return LoadEntry(
        node + 1 + static_cast<size_t>(std::popcount(mask & (slot_bit - 1))));
  }

  // Decodes a level-2 entry into a ValueRef (kValues mode).
  ValueRef DecodeEntry(uint64_t entry) const {
    if (entry & 1) return ValueRef(entry >> 1, nullptr);
    return ValueRef(0, reinterpret_cast<const ValueList*>(entry));
  }
  static const std::byte* EntryPayload(uint64_t entry) {
    return reinterpret_cast<const std::byte*>(entry);
  }

 private:
  // Level-2 node layouts. Uncompressed: uint64 entries[l2_fanout].
  // Compressed: uint64 bitmask; uint64 entries[popcount(bitmask)].
  uint64_t* UncompressedEntries(uint32_t handle) {
    return static_cast<uint64_t*>(slab_.Resolve(handle));
  }
  const uint64_t* UncompressedEntries(uint32_t handle) const {
    return static_cast<const uint64_t*>(slab_.Resolve(handle));
  }

  // Returns a pointer to the entry slot for `key`, creating the level-2
  // node (and growing compressed nodes via RCU copy) as needed.
  uint64_t* FindOrCreateEntrySlot(uint32_t key);
  // Returns the entry for `key`, or 0.
  uint64_t FindEntry(uint32_t key) const;

  void AppendToEntry(uint64_t* entry, uint64_t value);
  // Key stats are advisory scan bounds; single writer, relaxed readers.
  void NoteKey(uint32_t key, bool created) {
    if (created) {
      // relaxed (all five): advisory stats, single writer; readers tolerate
      // staleness (a too-wide scan bound, never a wrong result).
      num_keys_.fetch_add(1, std::memory_order_relaxed);
      if (key < min_key_.load(std::memory_order_relaxed)) {
        min_key_.store(key, std::memory_order_relaxed);  // relaxed: ditto
      }
      if (key > max_key_.load(std::memory_order_relaxed)) {  // relaxed: ditto
        max_key_.store(key, std::memory_order_relaxed);  // relaxed: ditto
      }
    }
  }

  template <typename F>
  void ScanRangeImpl(uint32_t lo, uint32_t hi, F&& fn) const;

  Config config_;
  size_t level2_bits_;
  size_t l2_fanout_;
  size_t root_size_;
  uint32_t* root_ = nullptr;  // mmap'd, MAP_NORESERVE
  size_t root_map_bytes_ = 0;
  CompactSlab slab_;
  Arena value_arena_;  // ValueLists and aggregate payload blocks
  PageArena dup_arena_;
  std::atomic<size_t> num_keys_{0};
  std::atomic<uint32_t> min_key_{std::numeric_limits<uint32_t>::max()};
  std::atomic<uint32_t> max_key_{0};
};

// ---- template member definitions -------------------------------------------

template <typename F>
void KissTree::ForEachLevel2Slot(uint32_t handle, F&& fn) const {
  if (handle == CompactSlab::kNullHandle) return;
  if (!config_.compress) {
    const uint64_t* entries = UncompressedEntries(handle);
    for (size_t slot = 0; slot < l2_fanout_; ++slot) {
      uint64_t entry = LoadEntry(entries + slot);
      if (entry != 0) {
        fn(static_cast<uint32_t>(slot), entry);
      }
    }
  } else {
    const uint64_t* node = UncompressedEntries(handle);
    uint64_t mask = LoadEntry(node);
    const uint64_t* packed = node + 1;
    size_t rank = 0;
    while (mask != 0) {
      uint32_t slot = static_cast<uint32_t>(std::countr_zero(mask));
      fn(slot, LoadEntry(packed + rank));
      ++rank;
      mask &= mask - 1;
    }
  }
}

template <typename F>
void KissTree::ScanRangeImpl(uint32_t lo, uint32_t hi, F&& fn) const {
  if (num_keys() == 0) return;
  uint32_t min_k = min_key();
  uint32_t max_k = max_key();
  if (lo < min_k) lo = min_k;
  if (hi > max_k) hi = max_k;
  if (lo > hi) return;
  size_t first_bucket = lo >> level2_bits_;
  size_t last_bucket = hi >> level2_bits_;
  for (size_t b = first_bucket; b <= last_bucket; ++b) {
    uint32_t handle = LoadRootSlot(&root_[b]);
    if (handle == CompactSlab::kNullHandle) continue;
    ForEachLevel2Slot(handle, [&](uint32_t slot, uint64_t entry) {
      uint32_t key = static_cast<uint32_t>((b << level2_bits_) | slot);
      if (key < lo || key > hi) return;
      fn(key, DecodeEntry(entry));
    });
  }
}

template <typename F>
void KissTree::ScanPayloads(F&& fn) const {
  if (num_keys() == 0) return;
  size_t first_bucket = min_key() >> level2_bits_;
  size_t last_bucket = max_key() >> level2_bits_;
  for (size_t b = first_bucket; b <= last_bucket; ++b) {
    uint32_t handle = LoadRootSlot(&root_[b]);
    if (handle == CompactSlab::kNullHandle) continue;
    ForEachLevel2Slot(handle, [&](uint32_t slot, uint64_t entry) {
      uint32_t key = static_cast<uint32_t>((b << level2_bits_) | slot);
      fn(key, EntryPayload(entry));
    });
  }
}

}  // namespace qppt

#endif  // QPPT_INDEX_KISS_TREE_H_
