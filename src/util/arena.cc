#include "util/arena.h"

#include "util/failpoint.h"

namespace qppt {

namespace {

uintptr_t AlignUp(uintptr_t v, size_t align) {
  return (v + align - 1) & ~(uintptr_t{align} - 1);
}

}  // namespace

void* Arena::Allocate(size_t size, size_t align) {
  uintptr_t current = reinterpret_cast<uintptr_t>(ptr_);
  uintptr_t aligned = AlignUp(current, align);
  size_t needed = (aligned - current) + size;
  if (ptr_ == nullptr || needed > static_cast<size_t>(end_ - ptr_)) {
    // A fresh block from new[] is suitably aligned for any fundamental
    // type; re-align within it for larger alignment requests.
    char* block = AllocateNewBlock(size + align);
    aligned = AlignUp(reinterpret_cast<uintptr_t>(block), align);
    ptr_ = reinterpret_cast<char*>(aligned);
  } else {
    ptr_ = reinterpret_cast<char*>(aligned);
  }
  char* result = ptr_;
  ptr_ += size;
  bytes_allocated_ += size;
  return result;
}

char* Arena::AllocateNewBlock(size_t min_size) {
  // Chaos hook: growth is where a real allocator fails, so the injected
  // bad_alloc exercises the same unwind as genuine memory pressure.
  QPPT_FAILPOINT(arena_grow);
  size_t size = min_size > block_size_ ? min_size : block_size_;
  Block block;
  block.data.reset(new char[size]);
  block.size = size;
  char* data = block.data.get();
  blocks_.push_back(std::move(block));
  ptr_ = data;
  end_ = data + size;
  bytes_reserved_ += size;
  return data;
}

void* PageArena::Allocate(size_t size) {
  if (size == 0) size = 8;
  if (size > kPageSize) {
    QPPT_FAILPOINT(page_arena_grow);
    // Oversized requests get their own page-aligned region.
    size_t pages = (size + kPageSize - 1) / kPageSize;
    size_t raw_bytes = pages * kPageSize + kPageSize;
    char* raw = new char[raw_bytes];
    chunks_.emplace_back(raw);
    char* aligned = reinterpret_cast<char*>(
        AlignUp(reinterpret_cast<uintptr_t>(raw), kPageSize));
    bytes_reserved_ += raw_bytes;
    bytes_allocated_ += size;
    return aligned;
  }
  uintptr_t current = reinterpret_cast<uintptr_t>(ptr_);
  // Power-of-two allocations packed from a page-aligned cursor never
  // straddle a page: align the cursor to the allocation size.
  uintptr_t aligned = AlignUp(current, size);
  if (ptr_ == nullptr ||
      aligned + size > reinterpret_cast<uintptr_t>(end_)) {
    QPPT_FAILPOINT(page_arena_grow);
    size_t chunk_bytes = kChunkPages * kPageSize;
    char* raw = new char[chunk_bytes + kPageSize];
    chunks_.emplace_back(raw);
    char* page_aligned = reinterpret_cast<char*>(
        AlignUp(reinterpret_cast<uintptr_t>(raw), kPageSize));
    ptr_ = page_aligned;
    end_ = page_aligned + chunk_bytes;
    bytes_reserved_ += chunk_bytes + kPageSize;
    aligned = reinterpret_cast<uintptr_t>(ptr_);
  }
  char* result = reinterpret_cast<char*>(aligned);
  ptr_ = result + size;
  bytes_allocated_ += size;
  return result;
}

}  // namespace qppt
