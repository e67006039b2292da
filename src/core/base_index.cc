#include "core/base_index.h"

#include <cassert>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "util/prefetch.h"

namespace qppt {

namespace {

bool KissEligible(const std::vector<ValueType>& key_types) {
  return key_types.size() == 1 && key_types[0] != ValueType::kDouble;
}

// Rows the partial-record copy prefetches ahead of the one it copies.
constexpr size_t kPrefetchRows = 16;

// Byte `b` of a record of 64-bit words read as one big-endian string.
inline uint8_t ByteAt(const uint64_t* rec, size_t b) {
  return static_cast<uint8_t>(rec[b >> 3] >> (56 - 8 * (b & 7)));
}

// Stable LSD radix sort (Polychroniou & Ross, SIGMOD 2014) of records of
// `words` 64-bit words on their leading `key_bytes` bytes: one counting
// pass per byte, least significant first, with every histogram taken in
// one read up front. The second buffer is freed on return.
void RadixSortRecords(std::vector<uint64_t>* recs, size_t words,
                      size_t key_bytes) {
  const size_t n = recs->size() / words;
  if (n < 2 || key_bytes == 0) return;
  std::vector<size_t> counts(key_bytes * 256, 0);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t* rec = recs->data() + i * words;
    for (size_t b = 0; b < key_bytes; ++b) ++counts[b * 256 + ByteAt(rec, b)];
  }
  std::vector<uint64_t> tmp(recs->size());
  for (size_t b = key_bytes; b-- > 0;) {
    size_t* offsets = &counts[b * 256];
    size_t sum = 0;
    for (size_t d = 0; d < 256; ++d) {
      size_t count = offsets[d];
      offsets[d] = sum;
      sum += count;
    }
    const uint64_t* src = recs->data();
    uint64_t* dst = tmp.data();
    for (size_t i = 0; i < n; ++i) {
      const uint64_t* rec = src + i * words;
      uint64_t* out = dst + offsets[ByteAt(rec, b)]++ * words;
      for (size_t w = 0; w < words; ++w) out[w] = rec[w];
    }
    recs->swap(tmp);
  }
}

}  // namespace

Result<std::unique_ptr<BaseIndex>> BaseIndex::Build(
    const RowTable* table, std::vector<std::string> key_columns,
    std::vector<std::string> included_columns, Options options) {
  auto index = std::unique_ptr<BaseIndex>(new BaseIndex());
  QPPT_RETURN_NOT_OK(index->Init(table, /*rids=*/nullptr, table->num_rows(),
                                 std::move(key_columns),
                                 std::move(included_columns), options));
  return index;
}

Result<std::unique_ptr<BaseIndex>> BaseIndex::BuildFromSnapshot(
    const MvccTable* table, Timestamp read_ts,
    std::vector<std::string> key_columns,
    std::vector<std::string> included_columns, Options options) {
  std::vector<Rid> rids = table->SnapshotRids(read_ts);
  auto index = std::unique_ptr<BaseIndex>(new BaseIndex());
  QPPT_RETURN_NOT_OK(index->Init(&table->storage(), rids.data(), rids.size(),
                                 std::move(key_columns),
                                 std::move(included_columns), options));
  return index;
}

Result<std::unique_ptr<BaseIndex>> BaseIndex::BuildLive(
    const MvccTable* table, std::vector<std::string> key_columns,
    Options options) {
  // Index every version row present, visible or not: scans filter through
  // RidVisibleAt, and rows from aborted transactions simply never become
  // visible. This keeps the build independent of in-flight transactions.
  auto index = std::unique_ptr<BaseIndex>(new BaseIndex());
  QPPT_RETURN_NOT_OK(index->Init(&table->storage(), /*rids=*/nullptr,
                                 table->num_versions(),
                                 std::move(key_columns),
                                 /*included_columns=*/{}, options));
  index->mvcc_ = table;
  return index;
}

void BaseIndex::InsertLive(Rid rid) {
  assert(mvcc_ != nullptr && !clustered());
  KeyBuf key;
  KeyOf(rid, &key);
  InsertKey(key.data(), rid);
  // relaxed: advisory counter; the tree publish carries the data.
  num_rows_.fetch_add(1, std::memory_order_relaxed);
}

void BaseIndex::KeyOf(Rid rid, KeyBuf* out) const {
  const uint64_t* row = table_->Record(rid);
  if (kind_ == Kind::kKiss) {
    out->clear();
    out->AppendU32(KissKeyOf(row[key_cols_[0]]));
    return;
  }
  uint64_t slots[KeyBuf::kCapacity / 8];
  for (size_t i = 0; i < key_cols_.size(); ++i) slots[i] = row[key_cols_[i]];
  EncodeKey(slots, out);
}

void BaseIndex::InsertKey(const uint8_t* key, uint64_t value) {
  if (kind_ == Kind::kKiss) {
    kiss_->Insert(DecodeU32(key), value);
  } else {
    prefix_->Insert(key, value);
  }
}

Status BaseIndex::Init(const RowTable* table, const Rid* rids, size_t n,
                       std::vector<std::string> key_columns,
                       std::vector<std::string> included_columns,
                       Options options) {
  table_ = table;
  key_names_ = std::move(key_columns);
  included_names_ = std::move(included_columns);
  if (key_names_.empty()) {
    return Status::InvalidArgument("base index needs at least one key column");
  }
  if (key_names_.size() > KeyBuf::kCapacity / 8) {
    return Status::InvalidArgument(
        "base index takes at most " + std::to_string(KeyBuf::kCapacity / 8) +
        " key columns, got " + std::to_string(key_names_.size()));
  }
  // The sort packs each input position into 32 bits.
  if (n > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("base index build takes at most 2^32 - 1 "
                                   "rows, got " + std::to_string(n));
  }
  const Schema& schema = table->schema();
  for (const auto& name : key_names_) {
    QPPT_ASSIGN_OR_RETURN(size_t idx, schema.ColumnIndex(name));
    key_cols_.push_back(idx);
    key_types_.push_back(schema.column(idx).type);
  }
  for (const auto& name : included_names_) {
    QPPT_ASSIGN_OR_RETURN(size_t idx, schema.ColumnIndex(name));
    included_cols_.push_back(idx);
  }
  if (options.prefer_kiss && KissEligible(key_types_)) {
    kind_ = Kind::kKiss;
    KissTree::Config cfg;
    cfg.root_bits = options.kiss_root_bits;
    kiss_ = std::make_unique<KissTree>(cfg);
  } else {
    kind_ = Kind::kPrefix;
    PrefixTree::Config cfg;
    cfg.key_len = key_cols_.size() * 8;
    cfg.kprime = options.kprime;
    cfg.mode = PrefixTree::PayloadMode::kValues;
    prefix_ = std::make_unique<PrefixTree>(cfg);
  }
  heap_width_ = clustered() ? 1 + included_cols_.size() : 0;
  auto rid_at = [rids](size_t pos) -> Rid {
    return rids != nullptr ? rids[pos] : pos;
  };

  // 1. Find the key bytes that vary across the input: the sort keeps only
  // those, so it skips every digit position all keys share.
  KeyBuf first, key;
  if (n > 0) KeyOf(rid_at(0), &first);
  uint8_t diff[KeyBuf::kCapacity] = {};
  for (size_t i = 1; i < n; ++i) {
    KeyOf(rid_at(i), &key);
    for (size_t b = 0; b < first.size(); ++b) {
      diff[b] |= key.data()[b] ^ first.data()[b];
    }
  }
  std::vector<size_t> varying;
  for (size_t b = 0; b < first.size(); ++b) {
    if (diff[b] != 0) varying.push_back(b);
  }

  // 2. Sort (varying key bytes, input position) records, packed big-endian
  // with the position in the last 4 bytes, on the key bytes. The sort is
  // stable, so equal keys keep input order.
  const size_t words = (varying.size() + 4 + 7) / 8;
  std::vector<uint64_t> recs(n * words, 0);
  for (size_t i = 0; i < n; ++i) {
    KeyOf(rid_at(i), &key);
    uint64_t* rec = &recs[i * words];
    for (size_t v = 0; v < varying.size(); ++v) {
      rec[v >> 3] |= uint64_t{key.data()[varying[v]]} << (56 - 8 * (v & 7));
    }
    rec[words - 1] |= i;
  }
  RadixSortRecords(&recs, words, varying.size());
  auto pos_at = [&](size_t j) -> size_t {
    return static_cast<uint32_t>(recs[j * words + words - 1]);
  };

  // 3. Copy the partial records in key order, prefetching rows ahead.
  if (clustered()) {
    heap_.resize(n * heap_width_);
    const size_t last_col = schema.num_columns() - 1;
    for (size_t j = 0; j < n; ++j) {
      if (j + kPrefetchRows < n) {
        const uint64_t* ahead =
            table_->Record(rid_at(pos_at(j + kPrefetchRows)));
        PrefetchRead(ahead);
        PrefetchRead(ahead + last_col);
      }
      Rid rid = rid_at(pos_at(j));
      const uint64_t* row = table_->Record(rid);
      uint64_t* entry = &heap_[j * heap_width_];
      entry[0] = rid;
      for (size_t c = 0; c < included_cols_.size(); ++c) {
        entry[1 + c] = row[included_cols_[c]];
      }
    }
  }

  // 4. Insert in key order, without table reads: a clustered value is the
  // entry's ordinal, a secondary one its rid.
  key = first;
  for (size_t j = 0; j < n; ++j) {
    const uint64_t* rec = &recs[j * words];
    for (size_t v = 0; v < varying.size(); ++v) {
      key.data()[varying[v]] = ByteAt(rec, v);
    }
    InsertKey(key.data(), clustered() ? j : rid_at(pos_at(j)));
  }
  // relaxed: bulk build completes before the index is shared.
  num_rows_.store(n, std::memory_order_relaxed);
  return Status::OK();
}

size_t BaseIndex::MemoryUsage() const {
  size_t index_bytes =
      kind_ == Kind::kKiss ? kiss_->MemoryUsage() : prefix_->MemoryUsage();
  return index_bytes + heap_.capacity() * sizeof(uint64_t);
}

Result<BaseIndex::Accessor> BaseIndex::BindColumn(
    const std::string& name) const {
  Accessor acc;
  acc.owner_ = this;
  if (name == "@rid") {
    acc.from_ = Accessor::From::kRid;
    return acc;
  }
  for (size_t i = 0; i < included_names_.size(); ++i) {
    if (included_names_[i] == name) {
      acc.from_ = Accessor::From::kPayload;
      acc.pos_ = 1 + i;  // slot 0 is the rid
      return acc;
    }
  }
  QPPT_ASSIGN_OR_RETURN(size_t idx, table_->schema().ColumnIndex(name));
  acc.from_ = Accessor::From::kTable;
  acc.pos_ = idx;
  return acc;
}

void BaseIndex::EncodeKey(const uint64_t* key_slots, KeyBuf* out) const {
  out->clear();
  for (size_t i = 0; i < key_types_.size(); ++i) {
    if (key_types_[i] == ValueType::kDouble) {
      out->AppendDouble(DoubleFromSlot(key_slots[i]));
    } else {
      out->AppendI64(Int64FromSlot(key_slots[i]));
    }
  }
}

// ---- Database ---------------------------------------------------------------

Status Database::AddTable(std::unique_ptr<RowTable> table) {
  if (table->name().empty()) {
    return Status::InvalidArgument("table must be named");
  }
  auto [it, inserted] = tables_.emplace(table->name(), std::move(table));
  if (!inserted) {
    return Status::AlreadyExists("table '" + it->first + "' already exists");
  }
  return Status::OK();
}

Result<const RowTable*> Database::table(const std::string& name) const {
  auto it = tables_.find(name);
  if (it != tables_.end()) return it->second.get();
  auto vit = versioned_.find(name);
  if (vit != versioned_.end()) return &vit->second->storage();
  return Status::NotFound("no table named '" + name + "'");
}

Status Database::AddVersionedTable(std::unique_ptr<MvccTable> table) {
  if (table->name().empty()) {
    return Status::InvalidArgument("table must be named");
  }
  if (tables_.count(table->name()) > 0) {
    return Status::AlreadyExists("table '" + table->name() +
                                 "' already exists");
  }
  auto [it, inserted] = versioned_.emplace(table->name(), std::move(table));
  if (!inserted) {
    return Status::AlreadyExists("table '" + it->first + "' already exists");
  }
  return Status::OK();
}

Result<MvccTable*> Database::versioned_table(const std::string& name) {
  auto it = versioned_.find(name);
  if (it == versioned_.end()) {
    return Status::NotFound("no versioned table named '" + name + "'");
  }
  return it->second.get();
}

Result<const MvccTable*> Database::versioned_table(
    const std::string& name) const {
  auto it = versioned_.find(name);
  if (it == versioned_.end()) {
    return Status::NotFound("no versioned table named '" + name + "'");
  }
  return it->second.get();
}

Status Database::BuildLiveIndex(const std::string& index_name,
                                const std::string& table_name,
                                std::vector<std::string> key_columns,
                                BaseIndex::Options options) {
  if (indexes_.count(index_name) > 0) {
    return Status::AlreadyExists("index '" + index_name + "' already exists");
  }
  QPPT_ASSIGN_OR_RETURN(const MvccTable* tbl, versioned_table(table_name));
  QPPT_ASSIGN_OR_RETURN(
      auto index, BaseIndex::BuildLive(tbl, std::move(key_columns), options));
  BaseIndex* raw = index.get();
  indexes_.emplace(index_name, std::move(index));
  live_by_table_[table_name].push_back(raw);
  return Status::OK();
}

const std::vector<BaseIndex*>& Database::live_indexes(
    const std::string& table_name) const {
  static const std::vector<BaseIndex*> kNone;
  auto it = live_by_table_.find(table_name);
  return it == live_by_table_.end() ? kNone : it->second;
}

Status Database::BuildIndex(const std::string& index_name,
                            const std::string& table_name,
                            std::vector<std::string> key_columns,
                            std::vector<std::string> included_columns,
                            BaseIndex::Options options) {
  if (indexes_.count(index_name) > 0) {
    return Status::AlreadyExists("index '" + index_name + "' already exists");
  }
  // table() resolves a versioned table to its raw version rows; a plain
  // index over those would see every version, unfiltered by MVCC.
  if (versioned_.count(table_name) > 0) {
    return Status::InvalidArgument("table '" + table_name +
                                   "' is versioned; use BuildLiveIndex");
  }
  QPPT_ASSIGN_OR_RETURN(const RowTable* tbl, table(table_name));
  QPPT_ASSIGN_OR_RETURN(
      auto index, BaseIndex::Build(tbl, std::move(key_columns),
                                   std::move(included_columns), options));
  indexes_.emplace(index_name, std::move(index));
  return Status::OK();
}

Result<const BaseIndex*> Database::index(const std::string& name) const {
  auto it = indexes_.find(name);
  if (it == indexes_.end()) {
    return Status::NotFound("no index named '" + name + "'");
  }
  return it->second.get();
}

size_t Database::MemoryUsage() const {
  size_t total = 0;
  for (const auto& [name, table] : tables_) total += table->MemoryUsage();
  for (const auto& [name, table] : versioned_) {
    total += table->storage().MemoryUsage();
  }
  for (const auto& [name, index] : indexes_) total += index->MemoryUsage();
  return total;
}

std::vector<std::string> Database::table_names() const {
  std::vector<std::string> names;
  for (const auto& [name, table] : tables_) names.push_back(name);
  for (const auto& [name, table] : versioned_) names.push_back(name);
  return names;
}

std::vector<std::string> Database::versioned_table_names() const {
  std::vector<std::string> names;
  for (const auto& [name, table] : versioned_) names.push_back(name);
  return names;
}

std::vector<std::string> Database::index_names() const {
  std::vector<std::string> names;
  for (const auto& [name, index] : indexes_) names.push_back(name);
  return names;
}

}  // namespace qppt
