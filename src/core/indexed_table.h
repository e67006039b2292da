// Intermediate indexed tables (§1, §3).
//
// The indexed table-at-a-time model exchanges *clustered indexes* between
// operators: a set of tuples stored within an in-memory index, keyed on the
// attribute(s) the *next* operator wants. An IndexedTable owns
//   - the materialized tuples (packed 64-bit slot rows), and
//   - the index over them: for a plain table, a KISS-Tree when the key is
//     a single integer attribute (32-bit join keys — "mostly sufficient",
//     §2.2), else a generalized prefix tree over the order-preserving
//     composite encoding.
//
// Aggregate tables implement aggregation-on-insert: the "tuples" are
// per-group accumulators living in the index payloads; sorting (the index
// is order-preserving) and grouping are side effects of output indexing.
// An aggregate table is always a prefix tree, whatever prefer_kiss says:
// its keys are the full int64/double group values, so negative groups
// sort first and values 2^32 apart stay apart (a KISS key keeps only the
// low 32 bits).
//
// An aggregate table also keeps a *group directory*: an open-addressing
// hash (linear probing, power-of-two size, allocated on the first
// insert, doubled once more than half full) from the encoded group key
// to the tree's content node. Every int64 group column encodes as 8
// bytes, so a 1- to 3-column key sits 16 to 48 fragment levels deep;
// InsertAggregated and MergeFrom fold a directory hit straight into the
// node's payload and walk the tree only on a miss. A slot matches when
// the key bytes stored in its node equal the encoded key, so groups are
// exactly the tree's (sign flip, double transform). The pointers stay
// valid because the tree never moves a content node: dynamic expansion
// relinks the same node one level down. The directory costs 8 B a slot
// (16-32 B a group); scans do not use it, and CloneEmpty starts without
// one.
//
// Intermediate tables are query-private: no transactional bookkeeping (§3).

#ifndef QPPT_CORE_INDEXED_TABLE_H_
#define QPPT_CORE_INDEXED_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/agg.h"
#include "index/key_encoder.h"
#include "index/kiss_tree.h"
#include "index/prefix_tree.h"
#include "storage/schema.h"
#include "util/status.h"

namespace qppt {

class IndexedTable {
 public:
  enum class Kind : uint8_t { kKiss, kPrefix };

  struct Options {
    size_t kprime = 4;          // prefix-tree fragment width
    bool prefer_kiss = true;    // use the KISS-Tree when the key allows
    size_t kiss_root_bits = 26;
  };

  // A plain (non-aggregating) indexed table: tuples of `schema`, indexed on
  // `key_columns` (each int64/string/double, at most KeyBuf::kCapacity / 8
  // of them; a single int64-like column with prefer_kiss selects the
  // KISS-Tree).
  static Result<std::unique_ptr<IndexedTable>> Create(
      Schema schema, std::vector<std::string> key_columns, Options options);
  static Result<std::unique_ptr<IndexedTable>> Create(
      Schema schema, std::vector<std::string> key_columns) {
    return Create(std::move(schema), std::move(key_columns), Options{});
  }

  // An aggregating indexed table: groups keyed on `key_columns` (which
  // must name columns of `key_schema`), with `agg` folded over input
  // tuples of `agg_input` on every insert. The output schema is the key
  // columns followed by one column per aggregate term. The index is a
  // prefix tree (options.prefer_kiss does not apply).
  static Result<std::unique_ptr<IndexedTable>> CreateAggregated(
      std::vector<ColumnDef> key_columns, AggSpec agg,
      const Schema& agg_input, Options options);
  static Result<std::unique_ptr<IndexedTable>> CreateAggregated(
      std::vector<ColumnDef> key_columns, AggSpec agg,
      const Schema& agg_input) {
    return CreateAggregated(std::move(key_columns), std::move(agg),
                            agg_input, Options{});
  }

  Kind kind() const { return kind_; }
  bool aggregated() const { return !agg_.empty(); }
  const Schema& schema() const { return schema_; }
  size_t num_key_columns() const { return key_cols_.size(); }
  // Positions of the key columns within schema().
  const std::vector<size_t>& key_column_positions() const { return key_cols_; }

  // Number of indexed tuples (kValues) / folded input tuples (aggregate).
  size_t num_tuples() const { return num_tuples_; }
  // Number of distinct keys (= groups for aggregate tables).
  size_t num_keys() const {
    return kind_ == Kind::kKiss ? kiss_->num_keys() : prefix_->num_keys();
  }
  size_t MemoryUsage() const;

  const KissTree* kiss() const { return kiss_.get(); }
  const PrefixTree* prefix() const { return prefix_.get(); }

  // --- plain tables --------------------------------------------------------

  // Appends `row` (schema_.num_columns() slots) and indexes it.
  void Insert(const uint64_t* row);

  // Inserts `row` only if its key is not yet present (distinct-union
  // semantics, §4.1). Returns true if inserted.
  bool InsertIfAbsent(const uint64_t* row);

  // Tuple access by the ids stored in the index.
  const uint64_t* Tuple(uint64_t id) const {
    return rows_.data() + id * schema_.num_columns();
  }

  // In-order scan: fn(const uint64_t* row). Keys ascend; duplicate order
  // within a key is unspecified (§2.4 multiset semantics).
  template <typename F>
  void ScanInOrder(F&& fn) const {
    if (kind_ == Kind::kKiss) {
      kiss_->ScanAll([&](uint32_t, const KissTree::ValueRef& vals) {
        vals.ForEach([&](uint64_t id) { fn(Tuple(id)); });
      });
    } else {
      prefix_->ScanAll([&](const PrefixTree::ContentNode& c) {
        prefix_->ValuesOf(&c)->ForEach([&](uint64_t id) { fn(Tuple(id)); });
      });
    }
  }

  // --- aggregate tables ------------------------------------------------------

  // Folds `input_row` (agg_input schema slots) into the group identified by
  // `key_slots` (one slot per key column).
  void InsertAggregated(const uint64_t* key_slots, const uint64_t* input_row);

  // In-order scan over groups: fn(const uint64_t* out_row) where out_row
  // has schema(): decoded key columns followed by finalized aggregates.
  template <typename F>
  void ScanGroups(F&& fn) const {
    std::vector<uint64_t> out(schema_.num_columns());
    prefix_->ScanAll([&](const PrefixTree::ContentNode& c) {
      DecodeKeyInto(c.key(), out.data());
      FinalizeInto(prefix_->PayloadOf(&c), out.data());
      fn(out.data());
    });
  }

  // --- parallel partials (engine layer) ---------------------------------------

  // A fresh empty table with identical schema, keys, aggregation, and
  // index configuration — the per-worker partial output of a parallel
  // operator.
  std::unique_ptr<IndexedTable> CloneEmpty() const;

  // Folds `other` (a CloneEmpty sibling) into this table: plain tables
  // re-insert the tuples, aggregate tables merge the per-group
  // accumulators (BoundAggSpec::Merge) into the groups the directory
  // finds. Single-threaded.
  void MergeFrom(const IndexedTable& other);

  // --- key handling (shared with operators) -----------------------------------

  // The 32-bit KISS key for `slot` (valid for kKiss tables).
  static uint32_t KissKeyOf(uint64_t slot) {
    return static_cast<uint32_t>(Int64FromSlot(slot));
  }

  // Encodes key column slots into `out` for prefix-tree tables.
  void EncodeKey(const uint64_t* key_slots, KeyBuf* out) const;
  size_t encoded_key_len() const { return key_types_.size() * 8; }

  const BoundAggSpec& bound_agg() const { return bound_agg_; }

 private:
  IndexedTable() = default;

  Status Init(Schema schema, std::vector<std::string> key_columns,
              AggSpec agg, const Schema* agg_input, Options options);

  // Decodes a prefix-tree key into the leading key column slots of `out`.
  void DecodeKeyInto(const uint8_t* key, uint64_t* out) const;
  // Writes finalized aggregates into the trailing columns of `out`.
  void FinalizeInto(const std::byte* payload, uint64_t* out) const;
  // The payload of group `key` (encoded), found in the group directory or
  // else found or created in the prefix tree and then entered.
  std::byte* GroupPayload(const uint8_t* key, bool* created);
  void GrowGroupDirectory();

  Kind kind_ = Kind::kPrefix;
  Schema schema_;
  std::vector<size_t> key_cols_;        // positions in schema_ (leading for agg)
  std::vector<ValueType> key_types_;
  AggSpec agg_;
  BoundAggSpec bound_agg_;
  std::unique_ptr<KissTree> kiss_;
  std::unique_ptr<PrefixTree> prefix_;
  std::vector<uint64_t> rows_;  // plain tables' tuples
  size_t num_tuples_ = 0;
  // Group directory (aggregate tables; see the file comment).
  std::vector<PrefixTree::ContentNode*> group_dir_;
  size_t group_dir_used_ = 0;
};

}  // namespace qppt

#endif  // QPPT_CORE_INDEXED_TABLE_H_
