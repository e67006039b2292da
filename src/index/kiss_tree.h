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
// first written — the paper's on-demand allocation trick. Config::root_bits
// lets the tree's own tests and benches build tiny trees; every index
// (base or intermediate, core/indexed_table.h) takes the default 26.
//
// A level-2 node is a flat array of 2^(32-root_bits) 8-byte entries,
// updated in place. QPPT runs its KISS-Trees without the original
// KISS-Tree's bitmask compression, whose RCU copy on every slot addition
// is the update overhead dense key ranges cannot afford (§2.2). Each
// populated root bucket therefore costs one whole node: 512 B for an
// isolated key at the paper's 26/6 split.
//
// Entries hold either a single inline value (low bit tagged) or a pointer
// to a §2.4 duplicate ValueList. Inline values must fit in 63 bits (true
// for rids and arena offsets). Aggregated outputs are prefix trees
// (core/indexed_table.h), so a KISS-Tree only ever maps keys to values.

#ifndef QPPT_INDEX_KISS_TREE_H_
#define QPPT_INDEX_KISS_TREE_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
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
// wide level-2 nodes (small root_bits) cheap on sparse keys.
//
// The chunk directory is itself a fixed MAP_NORESERVE mapping (256 KiB
// virtual for the maximal 32 Ki chunks, created on first Allocate so
// empty slabs stay free to construct), so Resolve() never observes a
// reallocating container: lock-free readers of a live index resolve
// handles while its one writer allocates.
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
  // a non-zero handle. Handles are never freed, so every allocation is
  // virgin zero pages.
  uint32_t Allocate(size_t bytes);

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

  char** chunk_dir_ = nullptr;  // MAP_NORESERVE array of kMaxChunks slots
  size_t num_chunks_ = 0;
  size_t used_in_chunk_ = kChunkBytes;  // forces allocation on first use
};

class KissTree {
 public:
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

  // Level-1 fragment widths the tree supports. Level-2 nodes then hold
  // between 64 entries (the paper's 26/6 split) and 64 Ki (tiny trees).
  static constexpr size_t kMinRootBits = 16;
  static constexpr size_t kMaxRootBits = 26;

  struct Config {
    size_t root_bits = 26;  // level-1 fragment width (paper: 26)
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
  // Smallest and largest key (UINT32_MAX and 0 while empty).
  uint32_t min_key() const {
    uint32_t k = std::numeric_limits<uint32_t>::max();
    ForEachSpan(0, k, [&](uint32_t lo, uint32_t) { k = std::min(k, lo); });
    return k;
  }
  uint32_t max_key() const {
    uint32_t k = 0;
    ForEachSpan(0, std::numeric_limits<uint32_t>::max(),
                [&](uint32_t, uint32_t hi) { k = std::max(k, hi); });
    return k;
  }
  bool empty() const { return num_keys() == 0; }

  // Calls fn(lo, hi) for the populated key span of each half of the key
  // space (keys below 2^31, then keys at or above it) clipped to
  // [span_lo, span_hi], skipping empty ones. Int64 keys on both sides of
  // zero map to both ends of the uint32 range (KissKeyOf), so one
  // [min_key(), max_key()] span would cover every root bucket; scans walk
  // these spans instead.
  template <typename F>
  void ForEachSpan(uint32_t span_lo, uint32_t span_hi, F&& fn) const {
    for (size_t h = 0; h < 2; ++h) {
      // relaxed: advisory scan bound (see num_keys).
      uint32_t lo = min_key_[h].load(std::memory_order_relaxed);
      // relaxed: ditto.
      uint32_t hi = max_key_[h].load(std::memory_order_relaxed);
      lo = std::max(lo, span_lo);
      hi = std::min(hi, span_hi);
      if (lo <= hi) fn(lo, hi);
    }
  }

  // Bytes of physical memory attributable to the tree (slab + value arena
  // + touched root pages; the untouched remainder of the 256 MiB root is
  // virtual only).
  size_t MemoryUsage() const;

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

  // --- scans ----------------------------------------------------------------

  // In-order traversal. F: void(uint32_t key, const ValueRef&).
  template <typename F>
  void ScanAll(F&& fn) const {
    ScanRange(0, std::numeric_limits<uint32_t>::max(), fn);
  }
  template <typename F>
  void ScanRange(uint32_t lo, uint32_t hi, F&& fn) const;

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
    return LoadEntry(Entries(handle) + slot);
  }

  // Decodes a level-2 entry into a ValueRef.
  ValueRef DecodeEntry(uint64_t entry) const {
    if (entry & 1) return ValueRef(entry >> 1, nullptr);
    return ValueRef(0, reinterpret_cast<const ValueList*>(entry));
  }

 private:
  // The level-2 node behind `handle`: uint64 entries[l2_fanout].
  uint64_t* Entries(uint32_t handle) {
    return static_cast<uint64_t*>(slab_.Resolve(handle));
  }
  const uint64_t* Entries(uint32_t handle) const {
    return static_cast<const uint64_t*>(slab_.Resolve(handle));
  }

  // Returns a pointer to the entry slot for `key`, creating the level-2
  // node as needed.
  uint64_t* FindOrCreateEntrySlot(uint32_t key);

  void AppendToEntry(uint64_t* entry, uint64_t value);
  // Key stats are advisory scan bounds; single writer, relaxed readers.
  void NoteKey(uint32_t key, bool created) {
    if (created) {
      // relaxed (all): advisory stats, single writer; readers tolerate
      // staleness (a too-wide scan bound, never a wrong result).
      num_keys_.fetch_add(1, std::memory_order_relaxed);
      const size_t h = key >> 31;  // the key's half (ForEachSpan)
      // relaxed (both): ditto
      if (key < min_key_[h].load(std::memory_order_relaxed)) {
        min_key_[h].store(key, std::memory_order_relaxed);  // relaxed: ditto
      }
      // relaxed (both): ditto
      if (key > max_key_[h].load(std::memory_order_relaxed)) {
        max_key_[h].store(key, std::memory_order_relaxed);
      }
    }
  }

  Config config_;
  size_t level2_bits_;
  size_t l2_fanout_;
  size_t root_size_;
  uint32_t* root_ = nullptr;  // mmap'd, MAP_NORESERVE, root_size_ slots
  CompactSlab slab_;
  Arena value_arena_;  // ValueList headers
  PageArena dup_arena_;
  std::atomic<size_t> num_keys_{0};
  // Per half of the key space (ForEachSpan): [0] keys below 2^31, [1]
  // keys at or above it. An empty half has min > max.
  std::atomic<uint32_t> min_key_[2] = {std::numeric_limits<uint32_t>::max(),
                                       std::numeric_limits<uint32_t>::max()};
  std::atomic<uint32_t> max_key_[2] = {0, 0};
};

// ---- template member definitions -------------------------------------------

template <typename F>
void KissTree::ForEachLevel2Slot(uint32_t handle, F&& fn) const {
  if (handle == CompactSlab::kNullHandle) return;
  const uint64_t* entries = Entries(handle);
  for (size_t slot = 0; slot < l2_fanout_; ++slot) {
    uint64_t entry = LoadEntry(entries + slot);
    if (entry != 0) {
      fn(static_cast<uint32_t>(slot), entry);
    }
  }
}

template <typename F>
void KissTree::ScanRange(uint32_t span_lo, uint32_t span_hi, F&& fn) const {
  ForEachSpan(span_lo, span_hi, [&](uint32_t lo, uint32_t hi) {
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
  });
}

}  // namespace qppt

#endif  // QPPT_INDEX_KISS_TREE_H_
