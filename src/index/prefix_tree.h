// Generalized prefix tree (§2.1; Böhm et al. [5]).
//
// An order-preserving, *unbalanced* trie over the big-endian binary
// representation of fixed-width keys. The key is split MSB-first into
// fragments of k' bits; each inner node holds 2^k' tagged child pointers.
// Dynamic expansion: a content node is installed at the shallowest level at
// which its key fragment is unique, so content nodes store the complete key
// for the final comparison (the path alone does not determine the key).
//
// Properties QPPT relies on:
//   * in-order traversal yields keys in ascending order (free sort/group),
//   * a key has a deterministic position (no rebalancing, trivial to
//     partition for parallelism),
//   * balanced read/write performance (high update rates for intermediate
//     index materialization).
//
// Payload modes:
//   * kValues     — each key maps to a multiset of 64-bit values, stored
//                   with the §2.4 duplicate segments (ValueList),
//   * kAggregate  — each key maps to a fixed-size in-place accumulator
//                   (aggregation-on-insert, §3: group-by as a side effect).
//
// The top: order-preserving encodings give keys long shared prefixes (an
// int64 key's sign-flipped leading bytes), so the first levels of the
// tree are a chain of single-child nodes that every key passes through.
// The tree keeps a pointer to the bottom of that chain — the *top*, the
// deepest node every key passes through, with the bit offset of its
// fragment — and every point descent starts there: Find, Lookup and
// BatchLookup, and the insert paths. The chain itself stays in place
// (scans and the synchronous scan walk from the root), so no node is ever
// unlinked; the top is the top-level case of ART's path compression
// (Leis, Kemper, Neumann, ICDE 2013) without changing the tree's shape.
// A reader needs no prefix check: a key outside the shared prefix is not
// in the tree, and the final full-key compare rejects it. The writer
// starts at the top only when the key's leading bits match the prefix
// (compared with a stored key: content nodes never move), else at the
// root, and moves the top after the slot store that changes it: a fill
// of an empty slot above the top makes that node the top, and the second
// key's dynamic expansion makes the node where the two keys diverge the
// top. So a tree publishes at most one top per level, plus the root's.
//
// The tree is single-writer (intermediate indexes are query-private, §3).
// Live base indexes additionally allow lock-free readers concurrent with
// that one writer: slots are published with release stores and read with
// acquire loads, and the tree never rebalances (§7), so a published slot
// is immutable except for the RCU-style dynamic-expansion swap, which
// builds the replacement chain detached and publishes it with one store.
// Each top is an immutable record in the node arena, published with one
// release store after the slot store that changed it and loaded with
// acquire. A reader holding a stale top either walks from a node every
// key still passes through, or misses only a key whose insert it raced.
// A live index inserts before its transaction's commit publishes, so a
// snapshot that includes a row also sees the top that row's insert set.

#ifndef QPPT_INDEX_PREFIX_TREE_H_
#define QPPT_INDEX_PREFIX_TREE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

#include "dbg/tsan.h"
#include "index/duplicate_chain.h"
#include "index/key_encoder.h"
#include "util/arena.h"
#include "util/bits.h"
#include "util/prefetch.h"

namespace qppt {

class PrefixTree {
 public:
  enum class PayloadMode : uint8_t { kValues, kAggregate };

  static constexpr size_t kMaxKprime = 16;

  struct Config {
    size_t key_len = 4;     // key width in bytes (1..KeyBuf::kCapacity)
    size_t kprime = 4;      // fragment width in bits (1..kMaxKprime)
    PayloadMode mode = PayloadMode::kValues;
    size_t agg_payload_size = 0;  // bytes, for kAggregate
  };

  // --- Internal node representation (exposed for the synchronous index
  // scan, §4.2, which co-traverses two trees structurally). -------------

  // Tagged slot: 0 = empty; low bit set = ContentNode*; else Node*.
  using Slot = uintptr_t;

  struct ContentNode {
    // Layout: [key bytes (key_len)] [padding to 8] [payload].
    const uint8_t* key() const {
      return reinterpret_cast<const uint8_t*>(this);
    }
    uint8_t* mutable_key() { return reinterpret_cast<uint8_t*>(this); }
  };

  struct Node {
    Slot slots[1];  // actually fanout() entries, arena-allocated
  };

  static bool IsContent(Slot s) { return (s & 1) != 0; }
  static ContentNode* AsContent(Slot s) {
    return reinterpret_cast<ContentNode*>(s & ~uintptr_t{1});
  }
  static Node* AsNode(Slot s) { return reinterpret_cast<Node*>(s); }

  // Slot accessors shared between the single writer and lock-free
  // readers. On x86 both compile to plain moves.
  static Slot LoadSlot(const Slot* p) {
    Slot v = __atomic_load_n(p, __ATOMIC_ACQUIRE);
    QPPT_TSAN_ACQUIRE(p);
    return v;
  }
  // pairs-with: prefix-slot (scripts/analyze/atomics_pairs.txt)
  static void StoreSlot(Slot* p, Slot v) {
    QPPT_TSAN_RELEASE(p);
    __atomic_store_n(p, v, __ATOMIC_RELEASE);
  }

  // ----------------------------------------------------------------------

  explicit PrefixTree(Config config);

  PrefixTree(const PrefixTree&) = delete;
  PrefixTree& operator=(const PrefixTree&) = delete;
  PrefixTree(PrefixTree&&) = delete;
  PrefixTree& operator=(PrefixTree&&) = delete;

  const Config& config() const { return config_; }
  size_t key_len() const { return config_.key_len; }
  size_t fanout() const { return fanout_; }
  size_t num_keys() const {
    // relaxed: advisory statistic; staleness only misguides planning.
    return num_keys_.load(std::memory_order_relaxed);
  }
  size_t num_inner_nodes() const {
    // relaxed: advisory statistic (see num_keys).
    return num_inner_nodes_.load(std::memory_order_relaxed);
  }
  const Node* root() const { return root_; }

  // Total bytes reserved by the tree's arenas.
  size_t MemoryUsage() const {
    return node_arena_.bytes_reserved() + dup_arena_.bytes_reserved();
  }

  // --- kValues mode -----------------------------------------------------

  // Appends `value` to the multiset at `key` (inserting the key if new).
  void Insert(const uint8_t* key, uint64_t value);

  // Insert-or-update: sets `key`'s value list to exactly {value}. This is
  // the Fig. 3(a) workload semantics.
  void Upsert(const uint8_t* key, uint64_t value);

  // Returns the value list for `key`, or nullptr if absent.
  const ValueList* Lookup(const uint8_t* key) const;

  // --- kAggregate mode ----------------------------------------------------

  // Returns the content node of group `key`, creating one with a
  // zero-filled payload if the key is new (*created reports which). The
  // caller folds its aggregate update into MutablePayloadOf(node) —
  // grouping happens here, as a side effect of output indexing (§3). A
  // content node never moves once created — dynamic expansion relinks the
  // same node one level down — so the pointer, and the key and payload in
  // the node, stay valid for the tree's lifetime (IndexedTable's group
  // directory keeps them).
  ContentNode* FindOrCreateGroup(const uint8_t* key, bool* created);

  // --- generic ------------------------------------------------------------

  // Returns the content node for `key`, or nullptr. Payload access via
  // PayloadOf / ValuesOf.
  const ContentNode* Find(const uint8_t* key) const;

  const ValueList* ValuesOf(const ContentNode* c) const {
    return reinterpret_cast<const ValueList*>(
        reinterpret_cast<const uint8_t*>(c) + payload_offset_);
  }
  ValueList* MutableValuesOf(ContentNode* c) {
    return reinterpret_cast<ValueList*>(reinterpret_cast<uint8_t*>(c) +
                                        payload_offset_);
  }
  const std::byte* PayloadOf(const ContentNode* c) const {
    return reinterpret_cast<const std::byte*>(c) + payload_offset_;
  }
  std::byte* MutablePayloadOf(ContentNode* c) {
    return reinterpret_cast<std::byte*>(c) + payload_offset_;
  }

  PageArena* dup_arena() { return &dup_arena_; }

  // In-order traversal. F: void(const ContentNode&). Keys are visited in
  // ascending encoded order (the tree is order-preserving).
  template <typename F>
  void ScanAll(F&& fn) const {
    ScanRec(root_, 0, fn);
  }

  // In-order traversal of keys in [lo, hi] (inclusive, encoded order).
  template <typename F>
  void ScanRange(const uint8_t* lo, const uint8_t* hi, F&& fn) const {
    if (CompareKeys(lo, hi, config_.key_len) > 0) return;
    ScanRangeRec(root_, 0, lo, hi, true, true, fn);
  }

  // --- batch processing (§2.3, Algorithm 1) -------------------------------

  struct LookupJob {
    const uint8_t* key = nullptr;       // in: key to look up
    const ContentNode* result = nullptr;  // out: content node or nullptr
    // internal state
    const Node* node = nullptr;
    uint32_t bit_off = 0;
    bool done = false;
  };

  // Level-synchronous batch lookup with software prefetching: all jobs
  // start at the top and advance one tree level per round; each child is
  // prefetched one round before it is dereferenced, hiding main-memory
  // latency.
  void BatchLookup(std::span<LookupJob> jobs) const;

 private:
  // The deepest node every key passes through, and the bit offset of its
  // fragment. Immutable once published; the root at offset 0 until the
  // tree holds two keys.
  struct Top {
    Node* node;
    size_t bit_off;
  };

  const Top* LoadTop() const {
    return top_.load(std::memory_order_acquire);
  }
  void PublishTop(Node* node, size_t bit_off);

  Node* NewNode();
  ContentNode* NewContent(const uint8_t* key);
  size_t FragWidth(size_t bit_off) const {
    size_t rest = key_bits_ - bit_off;
    return rest < config_.kprime ? rest : config_.kprime;
  }
  uint32_t Frag(const uint8_t* key, size_t bit_off) const {
    return ExtractFragment(key, config_.key_len, bit_off, FragWidth(bit_off));
  }

  // Core walk shared by all insert paths: returns the content node for
  // `key`, creating (and dynamically expanding) as needed.
  ContentNode* FindOrCreateContent(const uint8_t* key, bool* created);

  template <typename F>
  void ScanRec(const Node* node, size_t bit_off, F&& fn) const {
    size_t n = size_t{1} << FragWidth(bit_off);
    for (size_t i = 0; i < n; ++i) {
      Slot s = LoadSlot(&node->slots[i]);
      if (s == 0) continue;
      if (IsContent(s)) {
        fn(*AsContent(s));
      } else {
        ScanRec(AsNode(s), bit_off + FragWidth(bit_off), fn);
      }
    }
  }

  template <typename F>
  void ScanRangeRec(const Node* node, size_t bit_off, const uint8_t* lo,
                    const uint8_t* hi, bool on_lo, bool on_hi,
                    F&& fn) const {
    size_t width = FragWidth(bit_off);
    uint32_t lo_frag = on_lo ? ExtractFragment(lo, config_.key_len, bit_off,
                                               width)
                             : 0;
    uint32_t hi_frag = on_hi ? ExtractFragment(hi, config_.key_len, bit_off,
                                               width)
                             : static_cast<uint32_t>((1u << width) - 1);
    for (uint32_t f = lo_frag; f <= hi_frag; ++f) {
      Slot s = LoadSlot(&node->slots[f]);
      if (s == 0) continue;
      if (IsContent(s)) {
        // Content nodes can sit above the full key depth (dynamic
        // expansion), so the bounds check is on the stored full key.
        const ContentNode* c = AsContent(s);
        if (CompareKeys(c->key(), lo, config_.key_len) >= 0 &&
            CompareKeys(c->key(), hi, config_.key_len) <= 0) {
          fn(*c);
        }
      } else {
        ScanRangeRec(AsNode(s), bit_off + width, lo, hi,
                     on_lo && f == lo_frag, on_hi && f == hi_frag, fn);
      }
    }
  }

  Config config_;
  size_t key_bits_;
  size_t fanout_;
  size_t payload_offset_;  // key bytes rounded up to 8
  size_t payload_size_;    // sizeof(ValueList) or agg_payload_size
  Arena node_arena_;
  PageArena dup_arena_;
  Node* root_ = nullptr;
  std::atomic<const Top*> top_{nullptr};
  // The key of the first content node, writer-side only: every key in the
  // tree shares the top's prefix with it.
  const uint8_t* prefix_key_ = nullptr;
  std::atomic<size_t> num_keys_{0};
  std::atomic<size_t> num_inner_nodes_{0};
};

}  // namespace qppt

#endif  // QPPT_INDEX_PREFIX_TREE_H_
