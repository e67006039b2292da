#include "index/prefix_tree.h"

#include <cassert>
#include <cstdint>
#include <cstring>
#include <new>

namespace qppt {

namespace {

// True when keys a and b agree on their leading `bits` bits.
bool SharePrefix(const uint8_t* a, const uint8_t* b, size_t bits) {
  const size_t bytes = bits / 8;
  if (std::memcmp(a, b, bytes) != 0) return false;
  const size_t rest = bits % 8;
  return rest == 0 || ((a[bytes] ^ b[bytes]) >> (8 - rest)) == 0;
}

}  // namespace

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
  assert(config.kprime >= 1 && config.kprime <= kMaxKprime);
  root_ = NewNode();
  PublishTop(root_, 0);
}

void PrefixTree::PublishTop(Node* node, size_t bit_off) {
  const Top* top = node_arena_.New<Top>(Top{node, bit_off});
  // pairs-with: prefix-top
  top_.store(top, std::memory_order_release);
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
  // relaxed: the single writer is the only thread that stores top_.
  const Top* top = top_.load(std::memory_order_relaxed);
  // A key outside the shared prefix starts at the root: it fills an empty
  // slot in a chain node above the top, which becomes the new top.
  const bool in_prefix =
      top->bit_off == 0 || SharePrefix(key, prefix_key_, top->bit_off);
  Node* node = in_prefix ? top->node : root_;
  size_t bit_off = in_prefix ? top->bit_off : 0;
  for (;;) {
    size_t width = FragWidth(bit_off);
    uint32_t frag =
        ExtractFragment(key, config_.key_len, bit_off, width);
    // Writer-side plain read; mutations are externally serialized.
    Slot& slot = node->slots[frag];
    if (slot == 0) {
      ContentNode* c = NewContent(key);
      StoreSlot(&slot, reinterpret_cast<uintptr_t>(c) | 1);
      if (bit_off < top->bit_off) PublishTop(node, bit_off);
      if (prefix_key_ == nullptr) prefix_key_ = c->key();
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
      Node* chain = NewNode();
      Node* inner = chain;
      for (;;) {
        size_t w = FragWidth(off);
        uint32_t existing_frag =
            ExtractFragment(existing->key(), config_.key_len, off, w);
        uint32_t new_frag = ExtractFragment(key, config_.key_len, off, w);
        if (existing_frag != new_frag) {
          inner->slots[existing_frag] =
              reinterpret_cast<uintptr_t>(existing) | 1;
          // The tree's first key sits in the root; with the second, every
          // key passes through the node where the two diverge.
          const bool second_key = num_keys() == 1;
          ContentNode* c = NewContent(key);
          inner->slots[new_frag] = reinterpret_cast<uintptr_t>(c) | 1;
          StoreSlot(&slot, reinterpret_cast<uintptr_t>(chain));
          if (second_key) PublishTop(inner, off);
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

PrefixTree::ContentNode* PrefixTree::FindOrCreateGroup(const uint8_t* key,
                                                       bool* created) {
  assert(config_.mode == PayloadMode::kAggregate);
  return FindOrCreateContent(key, created);
}

const PrefixTree::ContentNode* PrefixTree::Find(const uint8_t* key) const {
  const Top* top = LoadTop();
  const Node* node = top->node;
  size_t bit_off = top->bit_off;
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

void PrefixTree::BatchLookup(std::span<LookupJob> jobs) const {
  // Algorithm 1 from the paper: process the batch level by level. Each
  // round computes every unfinished job's child slot and issues a prefetch
  // for it, so that by the time the next round dereferences the child the
  // cache line is (ideally) already in L1. Every job starts at the top.
  const Top* top = LoadTop();
  for (auto& job : jobs) {
    job.node = top->node;
    job.bit_off = static_cast<uint32_t>(top->bit_off);
    job.done = false;
    job.result = nullptr;
    PrefetchRead(&top->node->slots[Frag(job.key, top->bit_off)]);
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

}  // namespace qppt
