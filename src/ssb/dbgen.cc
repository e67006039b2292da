#include "ssb/dbgen.h"

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/rng.h"

namespace qppt::ssb {

namespace {

bool IsLeapYear(int y) {
  return (y % 4 == 0 && y % 100 != 0) || y % 400 == 0;
}

int DaysInMonth(int y, int m) {
  static const int kDays[12] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};
  if (m == 2 && IsLeapYear(y)) return 29;
  return kDays[m - 1];
}

const char* const kMonthNames[12] = {"Jan", "Feb", "Mar", "Apr", "May", "Jun",
                                     "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};

Status BuildDate(Database* db, const SsbDictionaries& dicts,
                 std::vector<int64_t>* datekeys) {
  auto table = std::make_unique<RowTable>(DateSchema(dicts), "date");
  for (int y = 1992; y <= 1998; ++y) {
    int day_of_year = 0;
    for (int m = 1; m <= 12; ++m) {
      std::string ym = std::string(kMonthNames[m - 1]) + std::to_string(y);
      int64_t ym_code = dicts.yearmonth->CodeOf(ym).value();
      for (int d = 1; d <= DaysInMonth(y, m); ++d) {
        ++day_of_year;
        int64_t datekey = int64_t{y} * 10000 + m * 100 + d;
        uint64_t row[5] = {SlotFromInt64(datekey), SlotFromInt64(y),
                           SlotFromInt64(int64_t{y} * 100 + m),
                           SlotFromInt64(ym_code),
                           SlotFromInt64((day_of_year - 1) / 7 + 1)};
        table->AppendRow(row);
        datekeys->push_back(datekey);
      }
    }
  }
  return db->AddTable(std::move(table));
}

Status BuildPart(Database* db, const SsbDictionaries& dicts, size_t count,
                 Rng* rng) {
  auto table = std::make_unique<RowTable>(PartSchema(dicts), "part");
  table->Reserve(count);
  for (size_t i = 0; i < count; ++i) {
    // Correlated hierarchy: manufacturer -> category -> brand (§SSB).
    int m = 1 + static_cast<int>(rng->NextBounded(5));
    int c = 1 + static_cast<int>(rng->NextBounded(5));
    int b = 1 + static_cast<int>(rng->NextBounded(40));
    std::string mfgr = "MFGR#" + std::to_string(m);
    std::string category = mfgr + std::to_string(c);
    std::string brand = category + std::to_string(b);
    uint64_t row[5] = {
        SlotFromInt64(static_cast<int64_t>(i)),
        SlotFromInt64(dicts.mfgr->CodeOf(mfgr).value()),
        SlotFromInt64(dicts.category->CodeOf(category).value()),
        SlotFromInt64(dicts.brand->CodeOf(brand).value()),
        SlotFromInt64(1 + static_cast<int64_t>(rng->NextBounded(50)))};
    table->AppendRow(row);
  }
  return db->AddTable(std::move(table));
}

Status BuildSupplierOrCustomer(Database* db, const SsbDictionaries& dicts,
                               const Schema& schema, const std::string& name,
                               size_t count, Rng* rng) {
  auto table = std::make_unique<RowTable>(schema, name);
  table->Reserve(count);
  for (size_t i = 0; i < count; ++i) {
    int nation = static_cast<int>(rng->NextBounded(25));
    int digit = static_cast<int>(rng->NextBounded(10));
    int region = RegionOfNation(nation);
    uint64_t row[4] = {
        SlotFromInt64(static_cast<int64_t>(i)),
        SlotFromInt64(dicts.city->CodeOf(CityName(nation, digit)).value()),
        SlotFromInt64(dicts.nation->CodeOf(kNations[nation]).value()),
        SlotFromInt64(dicts.region->CodeOf(kRegions[region]).value())};
    table->AppendRow(row);
  }
  return db->AddTable(std::move(table));
}

// Generates the lineorder rows; emit(row) receives each 9-slot record.
// Shared by the plain and versioned builds so both modes produce the
// identical byte stream for one seed.
template <typename Emit>
void GenLineorderRows(size_t count, size_t customers, size_t suppliers,
                      size_t parts, const std::vector<int64_t>& datekeys,
                      Rng* rng, Emit&& emit) {
  for (size_t i = 0; i < count; ++i) {
    int64_t quantity = 1 + static_cast<int64_t>(rng->NextBounded(50));
    int64_t discount = static_cast<int64_t>(rng->NextBounded(11));  // 0..10
    int64_t extendedprice =
        90000 + static_cast<int64_t>(rng->NextBounded(1000000));
    int64_t revenue = extendedprice * (100 - discount) / 100;
    int64_t supplycost = extendedprice * 6 / 10 +
                         static_cast<int64_t>(rng->NextBounded(10000));
    uint64_t row[9] = {
        SlotFromInt64(static_cast<int64_t>(rng->NextBounded(customers))),
        SlotFromInt64(static_cast<int64_t>(rng->NextBounded(parts))),
        SlotFromInt64(static_cast<int64_t>(rng->NextBounded(suppliers))),
        SlotFromInt64(datekeys[rng->NextBounded(datekeys.size())]),
        SlotFromInt64(quantity),
        SlotFromInt64(extendedprice),
        SlotFromInt64(discount),
        SlotFromInt64(revenue),
        SlotFromInt64(supplycost)};
    emit(row);
  }
}

Status BuildLineorder(Database* db, bool versioned, size_t count,
                      size_t customers, size_t suppliers, size_t parts,
                      const std::vector<int64_t>& datekeys, Rng* rng) {
  if (!versioned) {
    auto table = std::make_unique<RowTable>(LineorderSchema(), "lineorder");
    table->Reserve(count);
    GenLineorderRows(count, customers, suppliers, parts, datekeys, rng,
                     [&](const uint64_t* row) {
                       table->AppendRow(std::span<const uint64_t>(row, 9));
                     });
    return db->AddTable(std::move(table));
  }
  // Versioned fact table: bulk-load as ONE committed transaction so every
  // row carries commit timestamp 1 and later write sessions / OLAP
  // flights interact with a normal MVCC history.
  auto table = std::make_unique<MvccTable>(LineorderSchema(), "lineorder");
  TransactionManager& tm = db->txn_manager();
  Transaction txn = tm.Begin();
  GenLineorderRows(count, customers, suppliers, parts, datekeys, rng,
                   [&](const uint64_t* row) {
                     table->Insert(txn, std::span<const uint64_t>(row, 9));
                   });
  Timestamp ts = tm.BeginCommit();
  table->CommitTransaction(txn, ts);
  tm.FinishCommit(txn, ts);
  return db->AddVersionedTable(std::move(table));
}

// The base-index pool for the QPPT plans: partially clustered indexes on
// every selection and join attribute the 13 queries touch (§3 — "created
// once and remain in the data pool for future queries").
Status BuildIndexes(Database* db, const SsbConfig& config) {
  const TreeOptions opt{.prefer_kiss = config.prefer_kiss};

  // Fact-table indexes on the join keys used as the left main of the
  // multi-way/star joins, plus the Q1.x selection index on lo_discount.
  // With a versioned lineorder they become *live* secondary indexes under
  // the same names, so all 13 query plans run unmodified: the clustered
  // payloads are traded for writability (attribute access reads the
  // version storage) and scans filter through the MVCC snapshot.
  if (config.versioned_lineorder) {
    QPPT_RETURN_NOT_OK(
        db->BuildLiveIndex("lo_partkey", "lineorder", {"lo_partkey"}, opt));
    QPPT_RETURN_NOT_OK(
        db->BuildLiveIndex("lo_custkey", "lineorder", {"lo_custkey"}, opt));
    QPPT_RETURN_NOT_OK(
        db->BuildLiveIndex("lo_discount", "lineorder", {"lo_discount"}, opt));
  } else {
    QPPT_RETURN_NOT_OK(db->BuildIndex(
        "lo_partkey", "lineorder", {"lo_partkey"},
        {"lo_suppkey", "lo_orderdate", "lo_revenue"}, opt));
    QPPT_RETURN_NOT_OK(db->BuildIndex(
        "lo_custkey", "lineorder", {"lo_custkey"},
        {"lo_suppkey", "lo_partkey", "lo_orderdate", "lo_revenue",
         "lo_supplycost"},
        opt));
    QPPT_RETURN_NOT_OK(db->BuildIndex(
        "lo_discount", "lineorder", {"lo_discount"},
        {"lo_quantity", "lo_orderdate", "lo_extendedprice", "lo_discount"},
        opt));
  }

  // Dimension indexes on the selection attributes.
  QPPT_RETURN_NOT_OK(db->BuildIndex("p_category", "part", {"p_category"},
                                    {"p_partkey", "p_brand1"}, opt));
  QPPT_RETURN_NOT_OK(db->BuildIndex("p_brand1", "part", {"p_brand1"},
                                    {"p_partkey", "p_brand1"}, opt));
  QPPT_RETURN_NOT_OK(db->BuildIndex("p_mfgr", "part", {"p_mfgr"},
                                    {"p_partkey", "p_category", "p_brand1"},
                                    opt));
  QPPT_RETURN_NOT_OK(db->BuildIndex("s_region", "supplier", {"s_region"},
                                    {"s_suppkey", "s_nation", "s_city"},
                                    opt));
  QPPT_RETURN_NOT_OK(db->BuildIndex("s_nation", "supplier", {"s_nation"},
                                    {"s_suppkey", "s_city"}, opt));
  QPPT_RETURN_NOT_OK(db->BuildIndex("s_city", "supplier", {"s_city"},
                                    {"s_suppkey", "s_city"}, opt));
  QPPT_RETURN_NOT_OK(db->BuildIndex("c_region", "customer", {"c_region"},
                                    {"c_custkey", "c_nation", "c_city"},
                                    opt));
  QPPT_RETURN_NOT_OK(db->BuildIndex("c_nation", "customer", {"c_nation"},
                                    {"c_custkey", "c_city"}, opt));
  QPPT_RETURN_NOT_OK(db->BuildIndex("c_city", "customer", {"c_city"},
                                    {"c_custkey", "c_city"}, opt));
  QPPT_RETURN_NOT_OK(db->BuildIndex("d_datekey", "date", {"d_datekey"},
                                    {"d_year"}, opt));
  QPPT_RETURN_NOT_OK(db->BuildIndex(
      "d_year", "date", {"d_year"},
      {"d_datekey", "d_weeknuminyear", "d_year"}, opt));
  QPPT_RETURN_NOT_OK(db->BuildIndex("d_yearmonthnum", "date",
                                    {"d_yearmonthnum"},
                                    {"d_datekey", "d_year"}, opt));
  return Status::OK();
}

}  // namespace

const ColumnTable& SsbData::Columnar(const std::string& table_name) {
  auto it = columnar_.find(table_name);
  if (it == columnar_.end()) {
    const RowTable* rows = db.table(table_name).value();
    it = columnar_
             .emplace(table_name, std::make_unique<ColumnTable>(
                                      ColumnTable::FromRowTable(*rows)))
             .first;
  }
  return *it->second;
}

Result<std::unique_ptr<SsbData>> Generate(const SsbConfig& config) {
  auto data = std::make_unique<SsbData>();
  data->config = config;
  data->dicts = MakeDictionaries();
  Rng rng(config.seed);

  std::vector<int64_t> datekeys;
  QPPT_RETURN_NOT_OK(BuildDate(&data->db, data->dicts, &datekeys));
  size_t parts = PartCount(config.scale_factor);
  size_t suppliers = SupplierCount(config.scale_factor);
  size_t customers = CustomerCount(config.scale_factor);
  QPPT_RETURN_NOT_OK(BuildPart(&data->db, data->dicts, parts, &rng));
  QPPT_RETURN_NOT_OK(BuildSupplierOrCustomer(&data->db, data->dicts,
                                             SupplierSchema(data->dicts),
                                             "supplier", suppliers, &rng));
  QPPT_RETURN_NOT_OK(BuildSupplierOrCustomer(&data->db, data->dicts,
                                             CustomerSchema(data->dicts),
                                             "customer", customers, &rng));
  QPPT_RETURN_NOT_OK(BuildLineorder(&data->db, config.versioned_lineorder,
                                    LineorderCount(config.scale_factor),
                                    customers, suppliers, parts, datekeys,
                                    &rng));
  if (config.build_indexes) {
    QPPT_RETURN_NOT_OK(BuildIndexes(&data->db, config));
  }
  return data;
}

}  // namespace qppt::ssb
