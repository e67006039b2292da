// Deterministic Star Schema Benchmark data generator.
//
// Substitutes for the SSB dbgen tool: same schema, same cardinality
// ratios, same attribute domains and correlations (brand determined by
// category determined by manufacturer; city determined by nation
// determined by region), seeded and fully reproducible. The evaluation
// (§5) only depends on these distributional properties, not on dbgen's
// exact byte stream.
//
// Besides the row tables, Generate() builds the base-index pool the QPPT
// plans of Fig. 5 start from (partially clustered indexes on the
// selection/join attributes) and, on demand, columnar copies for the
// baseline engines.

#ifndef QPPT_SSB_DBGEN_H_
#define QPPT_SSB_DBGEN_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/base_index.h"
#include "ssb/schema.h"
#include "storage/column_table.h"
#include "util/status.h"

namespace qppt::ssb {

struct SsbConfig {
  double scale_factor = 0.1;
  uint64_t seed = 42;
  // false builds the base-index pool with generalized prefix trees
  // instead of KISS-Trees where both are eligible; either family takes
  // the trees' default shape (TreeOptions). Intermediates stay
  // KISS-Trees under PlanKnobs' defaults, so every star join of a base
  // index with an intermediate then takes the mixed-family path; also set
  // PlanKnobs::table_options.prefer_kiss = false for all-prefix plans.
  bool prefer_kiss = true;
  // Skip base-index construction (for baseline-only experiments).
  bool build_indexes = true;
  // Store lineorder as a versioned (MVCC) table bulk-loaded in one
  // committed transaction, with *live* secondary fact indexes under the
  // usual names (lo_partkey, lo_custkey, lo_discount) — the HTAP setup:
  // engine write sessions upsert while SSB flights read snapshots. The 13
  // query plans run unmodified.
  bool versioned_lineorder = false;
};

class SsbData {
 public:
  Database db;
  SsbDictionaries dicts;
  SsbConfig config;

  // Dictionary-code helpers for formulating predicates.
  int64_t RegionCode(const std::string& name) const {
    return dicts.region->CodeOf(name).value();
  }
  int64_t NationCode(const std::string& name) const {
    return dicts.nation->CodeOf(name).value();
  }
  int64_t CityCode(const std::string& name) const {
    return dicts.city->CodeOf(name).value();
  }
  int64_t MfgrCode(const std::string& name) const {
    return dicts.mfgr->CodeOf(name).value();
  }
  int64_t CategoryCode(const std::string& name) const {
    return dicts.category->CodeOf(name).value();
  }
  int64_t BrandCode(const std::string& name) const {
    return dicts.brand->CodeOf(name).value();
  }

  // Columnar copies for the baseline engines (built lazily, cached).
  const ColumnTable& Columnar(const std::string& table_name);

 private:
  std::map<std::string, std::unique_ptr<ColumnTable>> columnar_;
};

// Generates tables, dictionaries, and (optionally) base indexes.
Result<std::unique_ptr<SsbData>> Generate(const SsbConfig& config);

}  // namespace qppt::ssb

#endif  // QPPT_SSB_DBGEN_H_
