#include "index/kiss_tree.h"

#include "util/failpoint.h"

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sys/mman.h>
#include <unistd.h>
#include <vector>

namespace qppt {

size_t CompactSlab::bytes_resident() const {
  const size_t page_size = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  size_t pages = 0;
  std::vector<unsigned char> vec(kChunkBytes / page_size);
  for (size_t i = 0; i < num_chunks_; ++i) {
    if (::mincore(chunk_dir_[i], kChunkBytes, vec.data()) == 0) {
      for (unsigned char v : vec) pages += v & 1;
    }
  }
  return pages * page_size;
}

CompactSlab::~CompactSlab() {
  if (chunk_dir_ == nullptr) return;
  for (size_t i = 0; i < num_chunks_; ++i) {
    ::munmap(chunk_dir_[i], kChunkBytes);
  }
  ::munmap(chunk_dir_, kMaxChunks * sizeof(char*));
}

CompactSlab::CompactSlab(CompactSlab&& other) noexcept
    : chunk_dir_(other.chunk_dir_),
      num_chunks_(other.num_chunks_),
      used_in_chunk_(other.used_in_chunk_) {
  other.chunk_dir_ = nullptr;
  other.num_chunks_ = 0;
  other.used_in_chunk_ = kChunkBytes;
}

uint32_t CompactSlab::Allocate(size_t bytes) {
  QPPT_FAILPOINT(slab_grow);
  bytes = (bytes + kGranularity - 1) & ~(kGranularity - 1);
  assert(bytes <= kChunkBytes);
  if (chunk_dir_ == nullptr) {
    // First allocation: map the chunk directory. Tiny virtually
    // (256 KiB), MAP_NORESERVE, and fixed — its slots never move, which
    // keeps a live index's lock-free Resolve() safe against its writer's
    // Allocate(), and empty slabs (every fresh CloneEmpty partial) never
    // pay for it.
    void* dir = ::mmap(nullptr, kMaxChunks * sizeof(char*),
                       PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (dir == MAP_FAILED) {
      std::perror("CompactSlab: mmap of chunk directory failed");
      std::abort();
    }
    chunk_dir_ = static_cast<char**>(dir);
  }
  if (used_in_chunk_ + bytes > kChunkBytes) {
    // Anonymous mappings are zero-filled on demand, so a freshly allocated
    // node needs no memset and costs physical memory only for the pages
    // its written slots land on.
    void* mem = ::mmap(nullptr, kChunkBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (mem == MAP_FAILED) {
      std::perror("CompactSlab: mmap of chunk failed");
      std::abort();
    }
    assert(num_chunks_ < kMaxChunks);
    chunk_dir_[num_chunks_++] = static_cast<char*>(mem);
    used_in_chunk_ = 0;
  }
  size_t chunk = num_chunks_ - 1;
  size_t unit = (chunk << kUnitsPerChunkLog2) |
                (used_in_chunk_ / kGranularity);
  used_in_chunk_ += bytes;
  return static_cast<uint32_t>(unit + 1);
}

KissTree::KissTree(Config config)
    : config_(config),
      level2_bits_(32 - config.root_bits),
      l2_fanout_(size_t{1} << level2_bits_),
      root_size_(size_t{1} << config.root_bits),
      value_arena_(/*block_size=*/256 * 1024) {
  // Level-2 fanout is 2^(32 - root_bits); keep nodes between 64 entries
  // (the paper's 26/6 split) and 64 Ki entries (tiny test trees).
  assert(config.root_bits >= 16 && config.root_bits <= 26);
  // The bitmask compression uses one uint64 mask, so it requires the
  // paper's exact 26/6 split (64 slots per level-2 node).
  assert(!config.compress || level2_bits_ <= 6);
  root_map_bytes_ = root_size_ * sizeof(uint32_t);
  // The paper's trick: reserve the root virtually; the OS materializes
  // zero-filled 4 KiB pages on first write, so a sparse tree never pays
  // for the full 256 MiB root.
  void* mem = ::mmap(nullptr, root_map_bytes_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (mem == MAP_FAILED) {
    std::perror("KissTree: mmap of root array failed");
    std::abort();
  }
  root_ = static_cast<uint32_t*>(mem);
}

KissTree::~KissTree() {
  if (root_ != nullptr) {
    ::munmap(root_, root_map_bytes_);
  }
}

KissTree::KissTree(KissTree&& other) noexcept
    : config_(other.config_),
      level2_bits_(other.level2_bits_),
      l2_fanout_(other.l2_fanout_),
      root_size_(other.root_size_),
      root_(other.root_),
      root_map_bytes_(other.root_map_bytes_),
      slab_(std::move(other.slab_)),
      value_arena_(std::move(other.value_arena_)),
      dup_arena_(std::move(other.dup_arena_)),
      // relaxed: move construction has exclusive access to both objects.
      num_keys_(other.num_keys_.load(std::memory_order_relaxed)),
      min_key_(other.min_key_.load(std::memory_order_relaxed)),
      max_key_(other.max_key_.load(std::memory_order_relaxed)) {
  other.root_ = nullptr;
  other.root_map_bytes_ = 0;
  // relaxed: move construction has exclusive access to both objects.
  other.num_keys_.store(0, std::memory_order_relaxed);
}

size_t KissTree::MemoryUsage() const {
  // The root array is virtual; attribute only an estimate of the touched
  // portion (one 4 KiB page per 1024 used buckets in the worst case is
  // workload-dependent, so we report the span between min and max bucket,
  // capped by the map size).
  size_t root_touched = 0;
  if (num_keys() > 0) {
    size_t first = (min_key() >> level2_bits_) * sizeof(uint32_t) / 4096;
    size_t last = (max_key() >> level2_bits_) * sizeof(uint32_t) / 4096;
    root_touched = (last - first + 1) * 4096;
  }
  return root_touched + slab_.bytes_resident() +
         value_arena_.bytes_reserved() + dup_arena_.bytes_reserved();
}

uint64_t* KissTree::FindOrCreateEntrySlot(uint32_t key) {
  size_t bucket = key >> level2_bits_;
  uint32_t slot = key & static_cast<uint32_t>(l2_fanout_ - 1);
  // Writer-side: mutations are externally serialized, so plain loads of
  // root/entry state are safe; every publication store is release so
  // lock-free readers see initialized nodes.
  uint32_t handle = root_[bucket];
  if (!config_.compress) {
    if (handle == CompactSlab::kNullHandle) {
      // Slab memory is zero on allocation (anonymous mapping), so the new
      // node's empty slots need no explicit clear.
      handle = slab_.Allocate(l2_fanout_ * sizeof(uint64_t));
      StoreRootSlot(&root_[bucket], handle);
    }
    return UncompressedEntries(handle) + slot;
  }
  // Compressed node: {bitmask, packed entries}. Slot additions copy the
  // node (RCU-style) and swap the compact pointer — this is the update
  // overhead QPPT avoids for dense ranges by disabling compression (§2.2).
  uint64_t slot_bit = uint64_t{1} << slot;
  if (handle == CompactSlab::kNullHandle) {
    uint32_t fresh = slab_.Allocate(2 * sizeof(uint64_t));
    uint64_t* node = UncompressedEntries(fresh);
    node[0] = slot_bit;
    node[1] = 0;
    StoreRootSlot(&root_[bucket], fresh);
    return node + 1;
  }
  uint64_t* node = UncompressedEntries(handle);
  uint64_t mask = node[0];
  size_t rank = static_cast<size_t>(std::popcount(mask & (slot_bit - 1)));
  if (mask & slot_bit) {
    return node + 1 + rank;
  }
  size_t old_count = static_cast<size_t>(std::popcount(mask));
  uint32_t fresh = slab_.Allocate((old_count + 2) * sizeof(uint64_t));
  uint64_t* copy = UncompressedEntries(fresh);
  copy[0] = mask | slot_bit;
  // Copy entries below the new slot, leave a hole, copy the rest.
  std::memcpy(copy + 1, node + 1, rank * sizeof(uint64_t));
  copy[1 + rank] = 0;
  std::memcpy(copy + 2 + rank, node + 1 + rank,
              (old_count - rank) * sizeof(uint64_t));
  // Old node becomes RCU garbage in the slab; in-flight readers keep
  // traversing it safely.
  StoreRootSlot(&root_[bucket], fresh);
  return copy + 1 + rank;
}

uint64_t KissTree::FindEntry(uint32_t key) const {
  size_t bucket = key >> level2_bits_;
  uint32_t slot = key & static_cast<uint32_t>(l2_fanout_ - 1);
  uint32_t handle = LoadRootSlot(&root_[bucket]);
  if (handle == CompactSlab::kNullHandle) return 0;
  if (!config_.compress) {
    return LoadEntry(UncompressedEntries(handle) + slot);
  }
  const uint64_t* node = UncompressedEntries(handle);
  uint64_t mask = LoadEntry(node);
  uint64_t slot_bit = uint64_t{1} << slot;
  if (!(mask & slot_bit)) return 0;
  size_t rank = static_cast<size_t>(std::popcount(mask & (slot_bit - 1)));
  return LoadEntry(node + 1 + rank);
}

void KissTree::AppendToEntry(uint64_t* entry, uint64_t value) {
  assert(value < (uint64_t{1} << 63) && "inline-tagged values must fit 63 bits");
  uint64_t cur = *entry;  // writer-owned; readers use LoadEntry
  if (cur == 0) {
    StoreEntry(entry, (value << 1) | 1);
    return;
  }
  if (cur & 1) {
    // Second value for this key: spill the inline value into a list, fully
    // built before the entry swings from tagged-inline to pointer.
    ValueList* list =
        new (value_arena_.Allocate(sizeof(ValueList), alignof(ValueList)))
            ValueList();
    list->Append(cur >> 1, &dup_arena_);
    list->Append(value, &dup_arena_);
    StoreEntry(entry, reinterpret_cast<uint64_t>(list));
    return;
  }
  reinterpret_cast<ValueList*>(cur)->Append(value, &dup_arena_);
}

void KissTree::Insert(uint32_t key, uint64_t value) {
  uint64_t* entry = FindOrCreateEntrySlot(key);
  NoteKey(key, *entry == 0);
  AppendToEntry(entry, value);
}

void KissTree::Upsert(uint32_t key, uint64_t value) {
  assert(value < (uint64_t{1} << 63));
  uint64_t* entry = FindOrCreateEntrySlot(key);
  NoteKey(key, *entry == 0);
  // A superseded list becomes arena garbage. Not snapshot-safe: the live
  // engine write path appends via Insert only.
  StoreEntry(entry, (value << 1) | 1);
}

bool KissTree::Lookup(uint32_t key, ValueRef* out) const {
  uint64_t entry = FindEntry(key);
  if (entry == 0) return false;
  *out = DecodeEntry(entry);
  return true;
}

void KissTree::BatchLookup(std::span<LookupJob> jobs) const {
  // Pipeline stage 1: prefetch every job's root bucket.
  for (auto& job : jobs) {
    PrefetchRead(&root_[job.key >> level2_bits_]);
  }
  // Stage 2: read root entries (now cached), prefetch level-2 slots.
  for (auto& job : jobs) {
    job.l2_handle = LoadRootSlot(&root_[job.key >> level2_bits_]);
    job.found = false;
    if (job.l2_handle == CompactSlab::kNullHandle) continue;
    const void* node = slab_.Resolve(job.l2_handle);
    if (!config_.compress) {
      uint32_t slot = job.key & static_cast<uint32_t>(l2_fanout_ - 1);
      PrefetchRead(static_cast<const uint64_t*>(node) + slot);
    } else {
      PrefetchRead(node);  // bitmask word; packed entry follows closely
    }
  }
  // Stage 3: resolve entries (level-2 lines are in cache).
  for (auto& job : jobs) {
    if (job.l2_handle == CompactSlab::kNullHandle) continue;
    uint64_t entry = FindEntry(job.key);
    if (entry != 0) {
      job.found = true;
      job.values = DecodeEntry(entry);
    }
  }
}

void KissTree::BatchUpsert(std::span<UpsertJob> jobs) {
  for (const auto& job : jobs) {
    PrefetchWrite(&root_[job.key >> level2_bits_]);
  }
  // Second pass prefetches existing level-2 slots; creation still happens
  // in the apply pass because it mutates the slab.
  if (!config_.compress) {
    for (const auto& job : jobs) {
      uint32_t handle = root_[job.key >> level2_bits_];
      if (handle != CompactSlab::kNullHandle) {
        uint32_t slot = job.key & static_cast<uint32_t>(l2_fanout_ - 1);
        PrefetchWrite(UncompressedEntries(handle) + slot);
      }
    }
  }
  for (const auto& job : jobs) {
    Upsert(job.key, job.value);
  }
}

void KissTree::BatchInsert(std::span<UpsertJob> jobs) {
  for (const auto& job : jobs) {
    PrefetchWrite(&root_[job.key >> level2_bits_]);
  }
  if (!config_.compress) {
    for (const auto& job : jobs) {
      uint32_t handle = root_[job.key >> level2_bits_];
      if (handle != CompactSlab::kNullHandle) {
        uint32_t slot = job.key & static_cast<uint32_t>(l2_fanout_ - 1);
        PrefetchWrite(UncompressedEntries(handle) + slot);
      }
    }
  }
  for (const auto& job : jobs) {
    Insert(job.key, job.value);
  }
}

}  // namespace qppt
