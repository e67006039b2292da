#include "index/prefix_tree.h"

#include <cassert>
#include <cstdint>
#include <cstring>
#include <new>

namespace qppt {

PrefixTree::PrefixTree(Config config)
    : config_(config),
      key_bits_(config.key_len * 8),
      fanout_(size_t{1} << config.kprime),
      payload_offset_((config.key_len + 7) & ~size_t{7}),
      payload_size_(config.mode == PayloadMode::kValues
                        ? sizeof(ValueList)
                        : config.agg_payload_size),
      node_arena_(/*block_size=*/256 * 1024) {
  assert(config.key_len >= 1 && config.key_len <= KeyBuf::kCapacity);
  assert(config.kprime >= 1 && config.kprime <= 16);
  root_ = NewNode();
}

PrefixTree::PrefixTree(PrefixTree&& other) noexcept
    : config_(other.config_),
      key_bits_(other.key_bits_),
      fanout_(other.fanout_),
      payload_offset_(other.payload_offset_),
      payload_size_(other.payload_size_),
      node_arena_(std::move(other.node_arena_)),
      dup_arena_(std::move(other.dup_arena_)),
      root_(other.root_),
      // relaxed: move construction has exclusive access to both objects.
      num_keys_(other.num_keys_.load(std::memory_order_relaxed)),
      num_inner_nodes_(
          other.num_inner_nodes_.load(std::memory_order_relaxed)) {
  other.root_ = nullptr;
  // relaxed: move construction has exclusive access to both objects.
  other.num_keys_.store(0, std::memory_order_relaxed);
  other.num_inner_nodes_.store(0, std::memory_order_relaxed);
}

PrefixTree::Node* PrefixTree::NewNode() {
  void* mem = node_arena_.AllocateZeroed(fanout_ * sizeof(Slot),
                                         /*align=*/alignof(Slot));
  // relaxed: advisory statistic; the single writer needs no ordering.
  num_inner_nodes_.fetch_add(1, std::memory_order_relaxed);
  return reinterpret_cast<Node*>(mem);
}

PrefixTree::ContentNode* PrefixTree::NewContent(const uint8_t* key) {
  void* mem =
      node_arena_.AllocateZeroed(payload_offset_ + payload_size_, /*align=*/8);
  auto* content = reinterpret_cast<ContentNode*>(mem);
  std::memcpy(content->mutable_key(), key, config_.key_len);
  if (config_.mode == PayloadMode::kValues) {
    new (MutableValuesOf(content)) ValueList();
  }
  // relaxed: advisory statistic; the single writer needs no ordering.
  num_keys_.fetch_add(1, std::memory_order_relaxed);
  return content;
}

PrefixTree::ContentNode* PrefixTree::FindOrCreateContent(const uint8_t* key,
                                                         bool* created) {
  Node* node = root_;
  size_t bit_off = 0;
  for (;;) {
    size_t width = FragWidth(bit_off);
    uint32_t frag =
        ExtractFragment(key, config_.key_len, bit_off, width);
    // Writer-side plain read; mutations are externally serialized.
    Slot& slot = node->slots[frag];
    if (slot == 0) {
      ContentNode* c = NewContent(key);
      StoreSlot(&slot, reinterpret_cast<uintptr_t>(c) | 1);
      *created = true;
      return c;
    }
    if (IsContent(slot)) {
      ContentNode* existing = AsContent(slot);
      if (CompareKeys(existing->key(), key, config_.key_len) == 0) {
        *created = false;
        return existing;
      }
      // Dynamic expansion: push the existing content node down until its
      // fragment diverges from the new key's fragment. The chain is built
      // detached and swapped in with a single release store, so a
      // concurrent reader sees either the old content slot or the
      // complete chain — never an inner node that lost `existing`.
      size_t off = bit_off + width;
      Node* top = NewNode();
      Node* inner = top;
      for (;;) {
        size_t w = FragWidth(off);
        uint32_t existing_frag =
            ExtractFragment(existing->key(), config_.key_len, off, w);
        uint32_t new_frag = ExtractFragment(key, config_.key_len, off, w);
        if (existing_frag != new_frag) {
          inner->slots[existing_frag] =
              reinterpret_cast<uintptr_t>(existing) | 1;
          ContentNode* c = NewContent(key);
          inner->slots[new_frag] = reinterpret_cast<uintptr_t>(c) | 1;
          StoreSlot(&slot, reinterpret_cast<uintptr_t>(top));
          *created = true;
          return c;
        }
        Node* next = NewNode();
        inner->slots[existing_frag] = reinterpret_cast<uintptr_t>(next);
        inner = next;
        off += w;
        // Keys are distinct and fixed-width, so fragments must diverge
        // before we run out of bits.
        assert(off < key_bits_ || existing_frag != new_frag);
      }
    }
    node = AsNode(slot);
    bit_off += width;
  }
}

void PrefixTree::Insert(const uint8_t* key, uint64_t value) {
  assert(config_.mode == PayloadMode::kValues);
  bool created = false;
  ContentNode* c = FindOrCreateContent(key, &created);
  MutableValuesOf(c)->Append(value, &dup_arena_);
}

void PrefixTree::Upsert(const uint8_t* key, uint64_t value) {
  assert(config_.mode == PayloadMode::kValues);
  bool created = false;
  ContentNode* c = FindOrCreateContent(key, &created);
  MutableValuesOf(c)->ReplaceWith(value);
}

std::byte* PrefixTree::FindOrCreatePayload(const uint8_t* key,
                                           bool* created) {
  return MutablePayloadOf(FindOrCreateGroup(key, created));
}

PrefixTree::ContentNode* PrefixTree::FindOrCreateGroup(const uint8_t* key,
                                                       bool* created) {
  assert(config_.mode == PayloadMode::kAggregate);
  return FindOrCreateContent(key, created);
}

const PrefixTree::ContentNode* PrefixTree::Find(const uint8_t* key) const {
  const Node* node = root_;
  size_t bit_off = 0;
  for (;;) {
    size_t width = FragWidth(bit_off);
    uint32_t frag =
        ExtractFragment(key, config_.key_len, bit_off, width);
    Slot slot = LoadSlot(&node->slots[frag]);
    if (slot == 0) return nullptr;
    if (IsContent(slot)) {
      const ContentNode* c = AsContent(slot);
      if (CompareKeys(c->key(), key, config_.key_len) == 0) return c;
      return nullptr;
    }
    node = AsNode(slot);
    bit_off += width;
  }
}

const ValueList* PrefixTree::Lookup(const uint8_t* key) const {
  const ContentNode* c = Find(key);
  return c == nullptr ? nullptr : ValuesOf(c);
}

const std::byte* PrefixTree::FindPayload(const uint8_t* key) const {
  const ContentNode* c = Find(key);
  return c == nullptr ? nullptr : PayloadOf(c);
}

void PrefixTree::BatchLookup(std::span<LookupJob> jobs) const {
  // Algorithm 1 from the paper: process the batch level by level. Each
  // round computes every unfinished job's child slot and issues a prefetch
  // for it, so that by the time the next round dereferences the child the
  // cache line is (ideally) already in L1.
  for (auto& job : jobs) {
    job.node = root_;
    job.bit_off = 0;
    job.done = false;
    job.result = nullptr;
    PrefetchRead(&root_->slots[Frag(job.key, 0)]);
  }
  bool done = false;
  while (!done) {
    done = true;
    for (auto& job : jobs) {
      if (job.done) continue;
      size_t width = FragWidth(job.bit_off);
      uint32_t frag = ExtractFragment(job.key, config_.key_len, job.bit_off,
                                      width);
      Slot slot = LoadSlot(&job.node->slots[frag]);
      if (slot == 0) {
        job.done = true;
        job.result = nullptr;
        continue;
      }
      if (IsContent(slot)) {
        const ContentNode* c = AsContent(slot);
        job.result = CompareKeys(c->key(), job.key, config_.key_len) == 0
                         ? c
                         : nullptr;
        job.done = true;
        continue;
      }
      job.node = AsNode(slot);
      job.bit_off += static_cast<uint32_t>(width);
      // Prefetch the slot this job will inspect next round.
      size_t next_width = FragWidth(job.bit_off);
      uint32_t next_frag = ExtractFragment(job.key, config_.key_len,
                                           job.bit_off, next_width);
      PrefetchRead(&job.node->slots[next_frag]);
      done = false;
    }
  }
}

void PrefixTree::BatchInsert(std::span<InsertJob> jobs) {
  // Inserts mutate the tree shape, so jobs are applied sequentially; the
  // batching win is the prefetch of each job's root-level slot ahead of
  // time plus the amortized call overhead (§2.3).
  for (const auto& job : jobs) {
    PrefetchRead(&root_->slots[Frag(job.key, 0)]);
  }
  for (const auto& job : jobs) {
    Insert(job.key, job.value);
  }
}

}  // namespace qppt
