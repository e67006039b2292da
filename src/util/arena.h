// Bump-pointer arena allocators.
//
// Arena: general-purpose block allocator. All memory is freed when the arena
// is destroyed; individual deallocation is not supported. This
// matches the lifetime of QPPT intermediate indexes, which live exactly as
// long as the query that produced them.
//
// PageArena: allocator for the duplicate-handling segments of Section 2.4;
// guarantees that no allocation of size <= 4 KiB crosses a 4 KiB page
// boundary, so that hardware prefetching can stream a whole segment.
//
// Neither arena locks: one thread allocates from an arena at a time —
// an index tree's single writer (a per-worker partial output, the final
// output its partials fold into serially, a live index under the
// database write lock) or a trace lane's single recorder.

#ifndef QPPT_UTIL_ARENA_H_
#define QPPT_UTIL_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

namespace qppt {

class Arena {
 public:
  static constexpr size_t kDefaultBlockSize = 64 * 1024;
  static constexpr size_t kPageSize = 4096;

  explicit Arena(size_t block_size = kDefaultBlockSize)
      : block_size_(block_size) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&&) = default;
  Arena& operator=(Arena&&) = default;

  // Allocates `size` bytes aligned to `align` (power of two, <= 4096).
  // Never returns nullptr; aborts on OOM (allocation failure is not a
  // recoverable condition for an in-memory engine).
  void* Allocate(size_t size, size_t align = 8);

  // Allocates and zero-fills.
  void* AllocateZeroed(size_t size, size_t align = 8) {
    void* p = Allocate(size, align);
    std::memset(p, 0, size);
    return p;
  }

  template <typename T, typename... Args>
  T* New(Args&&... args) {
    void* p = Allocate(sizeof(T), alignof(T));
    return new (p) T(static_cast<Args&&>(args)...);
  }

  // Copies `size` bytes into the arena and returns the copy.
  void* CopyBytes(const void* src, size_t size, size_t align = 8) {
    void* p = Allocate(size, align);
    std::memcpy(p, src, size);
    return p;
  }

  // Total bytes handed out by Allocate().
  size_t bytes_allocated() const { return bytes_allocated_; }
  // Total bytes reserved from the system (>= bytes_allocated()).
  size_t bytes_reserved() const { return bytes_reserved_; }

 private:
  struct Block {
    std::unique_ptr<char[]> data;
    size_t size = 0;
  };

  char* AllocateNewBlock(size_t min_size);

  size_t block_size_;
  std::vector<Block> blocks_;
  char* ptr_ = nullptr;   // next free byte in current block
  char* end_ = nullptr;   // end of current block
  size_t bytes_allocated_ = 0;
  size_t bytes_reserved_ = 0;
};

// Arena whose allocations never straddle a 4 KiB page boundary (for sizes
// up to one page). Allocations must be power-of-two sized for the
// no-straddle guarantee to hold, which is true for duplicate segments
// (64 B, 128 B, ..., 4 KiB).
class PageArena {
 public:
  static constexpr size_t kPageSize = 4096;

  PageArena() = default;
  PageArena(const PageArena&) = delete;
  PageArena& operator=(const PageArena&) = delete;
  PageArena(PageArena&&) = default;
  PageArena& operator=(PageArena&&) = default;

  // Allocates `size` bytes (power of two, <= 4096) such that the block does
  // not cross a page boundary.
  void* Allocate(size_t size);

  size_t bytes_allocated() const { return bytes_allocated_; }
  size_t bytes_reserved() const { return bytes_reserved_; }

 private:
  static constexpr size_t kChunkPages = 64;  // 256 KiB chunks

  std::vector<std::unique_ptr<char[]>> chunks_;
  char* ptr_ = nullptr;
  char* end_ = nullptr;
  size_t bytes_allocated_ = 0;
  size_t bytes_reserved_ = 0;
};

}  // namespace qppt

#endif  // QPPT_UTIL_ARENA_H_
