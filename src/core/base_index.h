// Base indexes over row tables (§3).
//
// Leaf operators access base data through prefix-tree-based *base indexes*
// that either already exist or are created once and stay in the data pool,
// and read their keys through one enumerator (ForEachKey) for every key
// predicate and both tree families. Two payload flavors (§3):
//   - secondary index:           payload = record identifier (rid) only;
//     attribute access costs a random read into the row table.
//   - partially clustered index: payload = rid plus a partial record of
//     "included" columns, stored packed next to the index in key order:
//     the i-th record belongs to the i-th index entry, so a key's
//     duplicates are one contiguous run. Operators read join/selection/
//     grouping attributes without touching the base table, at sequential
//     speed — the paper's main lever for fast selections and joins.
//
// Every build is one bulk load: the input rows' keys are stable-radix-
// sorted on their order-preserving bytes, then inserted in key order.
//
// Base indexes respect transactional isolation: BuildFromSnapshot indexes
// the rows visible to an MVCC snapshot.

#ifndef QPPT_CORE_BASE_INDEX_H_
#define QPPT_CORE_BASE_INDEX_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/indexed_table.h"
#include "index/key_encoder.h"
#include "index/kiss_tree.h"
#include "index/prefix_tree.h"
#include "storage/mvcc.h"
#include "storage/row_table.h"
#include "util/status.h"

namespace qppt {

// Predicate on the (single-column) key of a base index.
struct KeyPredicate {
  enum class Kind : uint8_t { kAll, kPoint, kRange, kIn };
  Kind kind = Kind::kAll;
  int64_t point = 0;
  int64_t lo = 0;
  int64_t hi = 0;
  std::vector<int64_t> in_points;  // kIn: a set (duplicates are ignored)

  static KeyPredicate All() { return {}; }
  static KeyPredicate Point(int64_t v) {
    return {Kind::kPoint, v, 0, 0, {}};
  }
  static KeyPredicate Range(int64_t lo, int64_t hi) {
    return {Kind::kRange, 0, lo, hi, {}};
  }
  static KeyPredicate In(std::vector<int64_t> points) {
    return {Kind::kIn, 0, 0, 0, std::move(points)};
  }
};

// Conjunctive predicates over a multidimensional base index (§4.1): one
// inclusive (lo, hi) pair per key column.
using CompositeRange = std::vector<std::pair<int64_t, int64_t>>;

class BaseIndex {
 public:
  enum class Kind : uint8_t { kKiss, kPrefix };

  // Builds an index over all rows of `table`, keyed on `key_columns` (at
  // most KeyBuf::kCapacity / 8 of them). Non-empty `included_columns`
  // makes it partially clustered.
  static Result<std::unique_ptr<BaseIndex>> Build(
      const RowTable* table, std::vector<std::string> key_columns,
      std::vector<std::string> included_columns, TreeOptions options);
  static Result<std::unique_ptr<BaseIndex>> Build(
      const RowTable* table, std::vector<std::string> key_columns,
      std::vector<std::string> included_columns = {}) {
    return Build(table, std::move(key_columns), std::move(included_columns),
                 TreeOptions{});
  }

  // Builds over the rows visible at an MVCC snapshot.
  static Result<std::unique_ptr<BaseIndex>> BuildFromSnapshot(
      const MvccTable* table, Timestamp read_ts,
      std::vector<std::string> key_columns,
      std::vector<std::string> included_columns, TreeOptions options);
  static Result<std::unique_ptr<BaseIndex>> BuildFromSnapshot(
      const MvccTable* table, Timestamp read_ts,
      std::vector<std::string> key_columns,
      std::vector<std::string> included_columns = {}) {
    return BuildFromSnapshot(table, read_ts, std::move(key_columns),
                             std::move(included_columns), TreeOptions{});
  }

  // Builds a *live* index over an MVCC table: every version row currently
  // in the table is indexed (including superseded and not-yet-committed
  // ones — visibility is enforced per scan via MvccTable::RidVisibleAt),
  // and InsertLive feeds version rows created by later transactions into
  // the trees while snapshot readers scan concurrently. Live indexes are
  // secondary-only: the partially clustered payload heap reallocates on
  // growth, which would race readers, so included columns are rejected.
  // Every attribute read of a live index is therefore random: one row
  // read plus one read of the row's version stamps per value. Star join
  // and select-join prefetch both a fixed distance ahead (StagingRing,
  // core/operators/common.h).
  static Result<std::unique_ptr<BaseIndex>> BuildLive(
      const MvccTable* table, std::vector<std::string> key_columns,
      TreeOptions options);
  static Result<std::unique_ptr<BaseIndex>> BuildLive(
      const MvccTable* table, std::vector<std::string> key_columns) {
    return BuildLive(table, std::move(key_columns), TreeOptions{});
  }

  // Appends one version row to a live index. Writer-side: the caller
  // serializes all InsertLive calls (Database::write_mutex); concurrent
  // snapshot readers are safe because the trees publish new keys and
  // values with release stores (§7: no rebalancing, so a published node
  // is never restructured under a reader).
  void InsertLive(Rid rid);

  // Non-null iff built with BuildLive.
  const MvccTable* mvcc() const { return mvcc_; }

  Kind kind() const { return kind_; }
  bool clustered() const { return !included_cols_.empty(); }
  const RowTable& table() const { return *table_; }
  const KissTree* kiss() const { return kiss_.get(); }
  const PrefixTree* prefix() const { return prefix_.get(); }
  size_t num_rows() const {
    // relaxed: advisory row count for planning; no data read through it.
    return num_rows_.load(std::memory_order_relaxed);
  }
  size_t num_keys() const {
    return kind_ == Kind::kKiss ? kiss_->num_keys() : prefix_->num_keys();
  }
  size_t MemoryUsage() const;
  const std::vector<std::string>& key_column_names() const {
    return key_names_;
  }

  // --- attribute access ------------------------------------------------------
  //
  // Index *values* are opaque 64-bit handles: the rid for secondary
  // indexes, a partial-record ordinal for clustered ones. An Accessor
  // resolves one column against a value; binding happens once per query.

  class Accessor {
   public:
    Accessor() = default;

    uint64_t Get(uint64_t value) const {
      switch (from_) {
        case From::kRid:
          return owner_->RidOf(value);
        case From::kPayload:
          return owner_->heap_[value * owner_->heap_width_ + pos_];
        case From::kTable:
          return owner_->table_->GetSlot(owner_->RidOf(value), pos_);
      }
      return 0;
    }

    // True if reading this column touches the base table (a random access
    // the partially clustered layout is designed to avoid).
    bool touches_table() const { return from_ == From::kTable; }

   private:
    friend class BaseIndex;
    enum class From : uint8_t { kRid, kPayload, kTable };
    const BaseIndex* owner_ = nullptr;
    From from_ = From::kRid;
    size_t pos_ = 0;
  };

  // Binds column `name`; resolution order: included payload, then base
  // table. The pseudo-column "@rid" yields the record identifier.
  Result<Accessor> BindColumn(const std::string& name) const;

  // --- key handling ------------------------------------------------------------

  void EncodeKey(const uint64_t* key_slots, KeyBuf* out) const;

  // The KISS keys a range predicate lo <= v <= hi selects, under the same
  // modulo-2^32 rule KissKeyOf applies to equality: the keys
  // {v mod 2^32 : lo <= v <= hi}. That is no range when lo > hi, one
  // range, or two when the interval wraps (lo < 0 <= hi, say):
  // [lo mod 2^32, 2^32 - 1], then [0, hi mod 2^32] — ranges listed in
  // ascending order of the values v they stand for. A span of 2^32 or
  // more values covers every key, listed from lo mod 2^32 upwards:
  // [l, 2^32 - 1], then [0, l - 1] when l = lo mod 2^32 is not 0. Ranges
  // that do not wrap are exactly [KissKeyOf(lo), KissKeyOf(hi)].
  struct KissRanges {
    uint32_t lo[2] = {};
    uint32_t hi[2] = {};
    size_t count = 0;
  };
  static KissRanges KissRangesOf(int64_t lo, int64_t hi) {
    constexpr uint32_t kMaxKey = std::numeric_limits<uint32_t>::max();
    if (lo > hi) return {};
    auto l = static_cast<uint32_t>(lo);
    auto h = static_cast<uint32_t>(hi);
    // hi >= lo, so the unsigned difference is the exact span minus one.
    if (static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) >= kMaxKey) {
      if (l == 0) return {{0}, {kMaxKey}, 1};
      return {{l, 0}, {kMaxKey, l - 1}, 2};
    }
    if (l <= h) return {{l}, {h}, 1};
    return {{l, 0}, {kMaxKey, h}, 2};
  }

  // --- scans ----------------------------------------------------------------------

  size_t num_key_columns() const { return key_cols_.size(); }

  // OK when ForEachKey can run `predicate` (or `composite`, when it is
  // not empty) on this index: a composite range gives one (lo, hi) pair
  // per key column, and a point, IN or range predicate needs a
  // single-column key. InvalidArgument otherwise.
  Status CheckKeyPredicate(const KeyPredicate& predicate,
                           const CompositeRange& composite) const;

  // The one key enumerator of the leaf operators: calls
  // fn(const KissTree::ValueRef& values) for each index key that
  // `predicate` selects (on a prefix index, ValueRef wraps the key's
  // ValueList). A non-empty `composite` replaces the predicate with one
  // (lo, hi) pair per key column, scanned as the lexicographic range of
  // the composite encoding (§4.1) — a superset of the box that callers
  // check per value. IN is a set: each distinct key once, in ascending
  // key order. A KISS index applies KissKeyOf to points and
  // KissRangesOf to ranges (a composite range reads column 0 only).
  // Callers check the predicate first (CheckKeyPredicate).
  template <typename F>
  void ForEachKey(const KeyPredicate& predicate,
                  const CompositeRange& composite, F&& fn) const {
    if (!composite.empty()) {
      ScanKeys(composite.data(), fn);
      return;
    }
    switch (predicate.kind) {
      case KeyPredicate::Kind::kAll:
        if (kind_ == Kind::kKiss) {
          kiss_->ScanAll(
              [&](uint32_t, const KissTree::ValueRef& vals) { fn(vals); });
        } else {
          prefix_->ScanAll([&](const PrefixTree::ContentNode& c) {
            fn(KissTree::ValueRef(0, prefix_->ValuesOf(&c)));
          });
        }
        return;
      case KeyPredicate::Kind::kPoint:
        LookupKey(SlotFromInt64(predicate.point), fn);
        return;
      case KeyPredicate::Kind::kRange: {
        const std::pair<int64_t, int64_t> bounds{predicate.lo, predicate.hi};
        ScanKeys(&bounds, fn);
        return;
      }
      case KeyPredicate::Kind::kIn: {
        std::vector<int64_t> keys(predicate.in_points);
        if (kind_ == Kind::kKiss) {
          for (int64_t& k : keys) k = KissKeyOf(SlotFromInt64(k));
        }
        std::sort(keys.begin(), keys.end());
        keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
        for (int64_t k : keys) LookupKey(SlotFromInt64(k), fn);
        return;
      }
    }
  }

  // Maps an index value back to its record identifier. For secondary
  // (and all live) indexes the value *is* the rid.
  Rid RidOf(uint64_t value) const {
    return clustered() ? heap_[value * heap_width_] : value;
  }

 private:
  BaseIndex() = default;

  // Bulk-builds over input rows rids[0, n), or rows [0, n) when `rids` is
  // null.
  Status Init(const RowTable* table, const Rid* rids, size_t n,
              std::vector<std::string> key_columns,
              std::vector<std::string> included_columns, TreeOptions options);

  // The bytes the tree orders `rid`'s key by: the 4-byte big-endian
  // KissKeyOf key, or the EncodeKey encoding.
  void KeyOf(Rid rid, KeyBuf* out) const;
  void InsertKey(const uint8_t* key, uint64_t value);

  // ForEachKey's point lookup and range scan (one (lo, hi) pair per key
  // column in `bounds`; a KISS index reads the first).
  template <typename F>
  void LookupKey(uint64_t key_slot, F& fn) const {
    if (kind_ == Kind::kKiss) {
      KissTree::ValueRef vals;
      if (kiss_->Lookup(KissKeyOf(key_slot), &vals)) fn(vals);
      return;
    }
    KeyBuf key;
    EncodeKey(&key_slot, &key);
    if (const ValueList* vals = prefix_->Lookup(key.data())) {
      fn(KissTree::ValueRef(0, vals));
    }
  }
  template <typename F>
  void ScanKeys(const std::pair<int64_t, int64_t>* bounds, F& fn) const {
    if (kind_ == Kind::kKiss) {
      KissRanges ranges = KissRangesOf(bounds[0].first, bounds[0].second);
      for (size_t i = 0; i < ranges.count; ++i) {
        kiss_->ScanRange(ranges.lo[i], ranges.hi[i],
                         [&](uint32_t, const KissTree::ValueRef& vals) {
                           fn(vals);
                         });
      }
      return;
    }
    uint64_t lo[KeyBuf::kCapacity / 8], hi[KeyBuf::kCapacity / 8];
    for (size_t i = 0; i < key_cols_.size(); ++i) {
      lo[i] = SlotFromInt64(bounds[i].first);
      hi[i] = SlotFromInt64(bounds[i].second);
    }
    KeyBuf lo_key, hi_key;
    EncodeKey(lo, &lo_key);
    EncodeKey(hi, &hi_key);
    prefix_->ScanRange(lo_key.data(), hi_key.data(),
                       [&](const PrefixTree::ContentNode& c) {
                         fn(KissTree::ValueRef(0, prefix_->ValuesOf(&c)));
                       });
  }

  Kind kind_ = Kind::kPrefix;
  const RowTable* table_ = nullptr;
  std::vector<std::string> key_names_;
  std::vector<size_t> key_cols_;
  std::vector<ValueType> key_types_;
  std::vector<std::string> included_names_;
  std::vector<size_t> included_cols_;
  std::unique_ptr<KissTree> kiss_;
  std::unique_ptr<PrefixTree> prefix_;
  // Partial records in key order: heap_width_ slots per entry =
  // [rid, included...]; a clustered index's value is the entry ordinal.
  std::vector<uint64_t> heap_;
  size_t heap_width_ = 0;
  // Relaxed atomic: live indexes grow under the database write lock
  // while planners read the count for costing; an approximate value is
  // fine there, and scans never consult it.
  std::atomic<size_t> num_rows_{0};
  // Set for live indexes; scans filter values through RidVisibleAt.
  const MvccTable* mvcc_ = nullptr;
};

// A named collection of tables and base indexes — the "data pool" the QPPT
// execution plans of Fig. 5 start from. Versioned (MVCC) tables register
// alongside plain row tables; their live indexes feed committed writes to
// in-flight queries through the engine write path.
class Database {
 public:
  Database() = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  Status AddTable(std::unique_ptr<RowTable> table);
  Result<const RowTable*> table(const std::string& name) const;

  // Registers a versioned table. Its row storage also resolves through
  // table(name), so read-only plan construction works unchanged.
  Status AddVersionedTable(std::unique_ptr<MvccTable> table);
  Result<MvccTable*> versioned_table(const std::string& name);
  Result<const MvccTable*> versioned_table(const std::string& name) const;

  // Builds and registers an index named `index_name` over `table_name`.
  // A versioned table needs BuildLiveIndex instead (InvalidArgument).
  Status BuildIndex(const std::string& index_name,
                    const std::string& table_name,
                    std::vector<std::string> key_columns,
                    std::vector<std::string> included_columns = {},
                    TreeOptions options = TreeOptions{});

  // Builds and registers a *live* secondary index over a versioned
  // table; committed writes reach it via WriteSession. It resolves
  // through index(name) like any other base index.
  Status BuildLiveIndex(const std::string& index_name,
                        const std::string& table_name,
                        std::vector<std::string> key_columns,
                        TreeOptions options = TreeOptions{});

  Result<const BaseIndex*> index(const std::string& name) const;

  // Live indexes registered over `table_name` (empty vector if none).
  const std::vector<BaseIndex*>& live_indexes(
      const std::string& table_name) const;

  // Commit timestamps for all versioned tables come from this manager.
  TransactionManager& txn_manager() { return tm_; }
  const TransactionManager& txn_manager() const { return tm_; }

  // Coarse writer lock: every write transaction applies + commits under
  // this mutex (§7: no rebalancing means lock-free snapshot readers need
  // no finer-grained writer coordination).
  std::mutex& write_mutex() const { return write_mu_; }

  size_t MemoryUsage() const;
  std::vector<std::string> table_names() const;
  std::vector<std::string> versioned_table_names() const;
  std::vector<std::string> index_names() const;

 private:
  std::map<std::string, std::unique_ptr<RowTable>> tables_;
  std::map<std::string, std::unique_ptr<MvccTable>> versioned_;
  std::map<std::string, std::unique_ptr<BaseIndex>> indexes_;
  std::map<std::string, std::vector<BaseIndex*>> live_by_table_;
  TransactionManager tm_;
  mutable std::mutex write_mu_;
};

}  // namespace qppt

#endif  // QPPT_CORE_BASE_INDEX_H_
