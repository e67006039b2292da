// The synchronous index scan (§4.2, Figure 6).
//
// QPPT's join algorithm for two unbalanced prefix-tree-based indexes that
// are both keyed on the join attribute: scan the two trees in lock step and
// descend only into buckets that are *in use by both* indexes — subtrees
// present in only one tree are skipped wholesale, which is where the
// algorithm beats probe-based joins when the key overlap is small.
//
// For two KISS-Trees the lock-step scan runs over the root arrays,
// restricted to the key spans both trees populate (KissTree::ForEachSpan)
// so dense keys never pay for the full 2^26-entry roots (§4.2). For two
// generalized prefix trees the scan recurses structurally; content nodes
// met above the full key depth (dynamic expansion) are matched against the
// other tree's subtree directly.

#ifndef QPPT_CORE_SYNC_SCAN_H_
#define QPPT_CORE_SYNC_SCAN_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "index/kiss_tree.h"
#include "index/prefix_tree.h"

namespace qppt {

// ---- KISS-Tree x KISS-Tree ---------------------------------------------------
//
// F: void(uint32_t key, const KissTree::ValueRef& left_values,
//         const KissTree::ValueRef& right_values)
//
// The range variant restricts the lock-step scan to keys in
// [span_lo, span_hi] — the engine layer partitions the shared span into
// disjoint morsels and runs one SynchronousScanRange per morsel, so the
// join parallelizes without the two trees ever being mutated.
template <typename F>
void SynchronousScanRange(const KissTree& left, const KissTree& right,
                          uint32_t span_lo, uint32_t span_hi, F&& fn) {
  assert(left.root_size() == right.root_size() &&
         "synchronous scan requires identical root fragment widths");
  const size_t l2 = left.level2_bits();
  // The spans both trees populate, per half of the key space (the halves
  // are disjoint, so a left span meets only the right span of its half).
  left.ForEachSpan(span_lo, span_hi, [&](uint32_t left_lo, uint32_t left_hi) {
    right.ForEachSpan(left_lo, left_hi, [&](uint32_t lo, uint32_t hi) {
      size_t first_bucket = lo >> l2;
      size_t last_bucket = hi >> l2;
      for (size_t b = first_bucket; b <= last_bucket; ++b) {
        uint32_t lh = left.RootEntry(b);
        if (lh == CompactSlab::kNullHandle) continue;
        uint32_t rh = right.RootEntry(b);
        if (rh == CompactSlab::kNullHandle) continue;  // skipped descent
        // Both level-2 nodes exist: iterate the (smaller representation
        // of the) left node's used slots and probe the right node's slot.
        left.ForEachLevel2Slot(lh, [&](uint32_t slot, uint64_t left_entry) {
          uint64_t right_entry = right.Level2Entry(rh, slot);
          if (right_entry == 0) return;
          uint32_t key = static_cast<uint32_t>((b << l2) | slot);
          if (key < lo || key > hi) return;
          fn(key, left.DecodeEntry(left_entry),
             right.DecodeEntry(right_entry));
        });
      }
    });
  });
}

template <typename F>
void SynchronousScan(const KissTree& left, const KissTree& right, F&& fn) {
  SynchronousScanRange(left, right, 0, std::numeric_limits<uint32_t>::max(),
                       static_cast<F&&>(fn));
}

// ---- prefix tree x prefix tree ------------------------------------------------

namespace internal {

// Finds `key` within the subtree rooted at `node` (whose first fragment
// starts at `bit_off`). Mirrors PrefixTree::Find but starts mid-tree.
const PrefixTree::ContentNode* FindInSubtree(const PrefixTree& tree,
                                             const PrefixTree::Node* node,
                                             size_t bit_off,
                                             const uint8_t* key);

template <typename F>
void SyncScanRec(const PrefixTree& left, const PrefixTree& right,
                 const PrefixTree::Node* lnode,
                 const PrefixTree::Node* rnode, size_t bit_off, F&& fn);

// Handles one matched slot pair (both sides non-empty) met at depth
// `bit_off` + `width`: content/content compares keys, content/subtree
// probes the subtree, node/node recurses.
template <typename F>
void SyncScanSlotPair(const PrefixTree& left, const PrefixTree& right,
                      PrefixTree::Slot ls, PrefixTree::Slot rs,
                      size_t bit_off, size_t width, F&& fn) {
  bool lc = PrefixTree::IsContent(ls);
  bool rc = PrefixTree::IsContent(rs);
  if (lc && rc) {
    const auto* a = PrefixTree::AsContent(ls);
    const auto* b = PrefixTree::AsContent(rs);
    if (CompareKeys(a->key(), b->key(), left.key_len()) == 0) {
      fn(a->key(), left.ValuesOf(a), right.ValuesOf(b));
    }
  } else if (lc) {
    // Left content vs right subtree: the content key either exists in
    // the right subtree or the pair has no matches here.
    const auto* a = PrefixTree::AsContent(ls);
    const auto* b = internal::FindInSubtree(
        right, PrefixTree::AsNode(rs), bit_off + width, a->key());
    if (b != nullptr) fn(a->key(), left.ValuesOf(a), right.ValuesOf(b));
  } else if (rc) {
    const auto* b = PrefixTree::AsContent(rs);
    const auto* a = internal::FindInSubtree(
        left, PrefixTree::AsNode(ls), bit_off + width, b->key());
    if (a != nullptr) fn(b->key(), left.ValuesOf(a), right.ValuesOf(b));
  } else {
    SyncScanRec(left, right, PrefixTree::AsNode(ls), PrefixTree::AsNode(rs),
                bit_off + width, fn);
  }
}

template <typename F>
void SyncScanRec(const PrefixTree& left, const PrefixTree& right,
                 const PrefixTree::Node* lnode,
                 const PrefixTree::Node* rnode, size_t bit_off, F&& fn) {
  size_t key_bits = left.key_len() * 8;
  size_t width = std::min(left.config().kprime, key_bits - bit_off);
  size_t fanout = size_t{1} << width;
  for (size_t i = 0; i < fanout; ++i) {
    PrefixTree::Slot ls = PrefixTree::LoadSlot(&lnode->slots[i]);
    if (ls == 0) continue;
    PrefixTree::Slot rs = PrefixTree::LoadSlot(&rnode->slots[i]);
    if (rs == 0) continue;  // skipped descent: bucket unused on one side
    SyncScanSlotPair(left, right, ls, rs, bit_off, width, fn);
  }
}

}  // namespace internal

// F: void(const uint8_t* key, const ValueList* left, const ValueList* right)
// Keys are visited in ascending encoded order.
template <typename F>
void SynchronousScan(const PrefixTree& left, const PrefixTree& right,
                     F&& fn) {
  assert(left.key_len() == right.key_len() &&
         left.config().kprime == right.config().kprime &&
         "synchronous scan requires identical key layout");
  if (left.num_keys() == 0 || right.num_keys() == 0) return;
  internal::SyncScanRec(left, right, left.root(), right.root(), 0, fn);
}

// ---- parallel pair scan (subtree-pair frontier) -----------------------------
//
// The parallel prefix-tree star join splits two trees into disjoint
// subtree pairs. FindPairFrontier starts from the roots' jointly populated
// slots and expands the list one level at a time: every inner x inner pair
// is replaced by its children populated on both sides, in slot order,
// until the list holds `target` pairs or no inner x inner pair is left.
// Pairs with a content side (dynamic expansion) are kept as they are, and
// the single-child chain that order-preserving encodings put above the
// trees' tops (the sign-flipped leading bytes of small int64 keys) is
// expanded like any other level. The list is in ascending key order, and
// a slice of it is scanned by SynchronousScanPairSlots. Both trees must
// share key_len and k' (StarJoinOp::Execute checks it at bind time).

// One jointly populated slot pair: the two slots, found at the level whose
// fragment starts at `bit_off` and is `width` bits wide.
struct PairSlot {
  PrefixTree::Slot left;
  PrefixTree::Slot right;
  uint32_t bit_off;
  uint32_t width;
};

inline std::vector<PairSlot> FindPairFrontier(const PrefixTree& left,
                                              const PrefixTree& right,
                                              size_t target) {
  assert(left.key_len() == right.key_len() &&
         left.config().kprime == right.config().kprime &&
         "synchronous scan requires identical key layout");
  std::vector<PairSlot> frontier;
  if (left.num_keys() == 0 || right.num_keys() == 0) return frontier;
  const size_t key_bits = left.key_len() * 8;
  auto add_children = [&](const PrefixTree::Node* lnode,
                          const PrefixTree::Node* rnode, size_t bit_off,
                          std::vector<PairSlot>* out) {
    const size_t width = std::min(left.config().kprime, key_bits - bit_off);
    for (size_t i = 0; i < (size_t{1} << width); ++i) {
      PrefixTree::Slot ls = PrefixTree::LoadSlot(&lnode->slots[i]);
      if (ls == 0) continue;
      PrefixTree::Slot rs = PrefixTree::LoadSlot(&rnode->slots[i]);
      if (rs == 0) continue;
      out->push_back({ls, rs, static_cast<uint32_t>(bit_off),
                      static_cast<uint32_t>(width)});
    }
  };
  add_children(left.root(), right.root(), 0, &frontier);
  std::vector<PairSlot> next;
  while (frontier.size() < target) {
    next.clear();
    bool expanded = false;
    for (const PairSlot& p : frontier) {
      if (PrefixTree::IsContent(p.left) || PrefixTree::IsContent(p.right)) {
        next.push_back(p);
        continue;
      }
      add_children(PrefixTree::AsNode(p.left), PrefixTree::AsNode(p.right),
                   p.bit_off + p.width, &next);
      expanded = true;
    }
    if (!expanded) break;
    frontier.swap(next);
  }
  return frontier;
}

// Scans the subtree pairs of a frontier slice, invoking fn exactly like
// SynchronousScan. Disjoint slices touch disjoint subtrees, so concurrent
// callers need no synchronization. Within a slice, keys ascend in encoded
// order.
template <typename F>
void SynchronousScanPairSlots(const PrefixTree& left, const PrefixTree& right,
                              std::span<const PairSlot> pairs, F&& fn) {
  for (const PairSlot& p : pairs) {
    internal::SyncScanSlotPair(left, right, p.left, p.right, p.bit_off,
                               p.width, fn);
  }
}

}  // namespace qppt

#endif  // QPPT_CORE_SYNC_SCAN_H_
