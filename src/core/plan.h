// Plan representation and execution (§3, Figure 5).
//
// A QPPT execution plan is an ordered list of operators. Each operator
// consumes base indexes (from the Database) and/or intermediate indexed
// tables (from named ExecContext slots), and produces one new indexed
// table — the indexed table-at-a-time contract: exactly one "next call"
// per operator, data handed over as a single index handle.
//
// PlanKnobs mirrors the demonstrator's optimization panel (appendix A):
// select-join fusion on/off, join-buffer size {1, 64, 512, 2048}, and the
// multi-way join cap {2, 3, 4, multi}.

#ifndef QPPT_CORE_PLAN_H_
#define QPPT_CORE_PLAN_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/base_index.h"
#include "core/indexed_table.h"
#include "core/stats.h"
#include "util/cancel.h"
#include "util/status.h"

namespace qppt {

namespace engine {
class WorkerPool;  // engine/scheduler.h — the morsel worker pool
}  // namespace engine

// Admission class for tiered admission control (engine/session.h). The
// engine reserves slots for kInteractive work and sheds kBatch work first
// under overload; core-layer execution ignores the field.
enum class QueryPriority : int {
  kInteractive = 0,
  kBatch = 1,
};

struct PlanKnobs {
  // Fuse selections into subsequent joins where the plan allows (§4.3).
  bool use_select_join = true;
  // Join/selection buffer capacity; 1 disables batching (§4.2).
  size_t join_buffer_size = 512;
  // Maximum operator arity for multi-way/star joins; 0 = unlimited.
  // (Interpreted by plan builders, not by operators.)
  int max_join_ways = 0;
  // Morsel workers for the hot operators (engine layer, §7). 1 = serial;
  // >1 requires a WorkerPool attached to the ExecContext (the
  // EngineRunner does both).
  size_t threads = 1;
  // MVCC snapshot to read versioned tables at. The default sentinel
  // (kTsInfinity) means "pin the latest committed timestamp when the
  // ExecContext is constructed" — the engine session pins earlier, at
  // query admission, so every operator of one flight sees one snapshot.
  Timestamp read_ts = kTsInfinity;
  // Record a per-query span timeline (every morsel, partial-output merge
  // and operator) into PlanStats::trace — obs/trace.h. Off by default: spans
  // are cheap but not free, and most queries only need aggregates.
  bool trace = false;
  // Cooperative cancellation token, or nullptr. The caller owns the token
  // and must keep it alive for the whole execution; drivers poll it at
  // morsel boundaries and (stride-gated) inside serial scan loops, so
  // Plan::Run returns Cancelled/DeadlineExceeded promptly after
  // RequestCancel() or deadline expiry.
  const CancelToken* cancel = nullptr;
  // Per-query deadline in milliseconds; 0 = none. The engine runner
  // resolves this into a deadline token chained to `cancel` at admission,
  // so the clock covers queue wait plus execution.
  double deadline_ms = 0;
  // Admission class (engine layer); see QueryPriority.
  QueryPriority priority = QueryPriority::kInteractive;
  // How long this query may wait for an admission slot before the engine
  // gives up with ResourceExhausted. Negative = use the engine's
  // configured default (EngineConfig::admission_timeout_ms).
  double queue_timeout_ms = -1;
  // Index construction parameters for intermediate tables.
  IndexedTable::Options table_options;
};

class ExecContext {
 public:
  ExecContext(const Database* db, PlanKnobs knobs = PlanKnobs{})
      : db_(db),
        knobs_(knobs),
        read_ts_(knobs.read_ts == kTsInfinity
                     ? db->txn_manager().last_commit_ts()
                     : knobs.read_ts) {
    stats_.threads = knobs_.threads;
    stats_.read_ts = read_ts_;
  }

  const Database& db() const { return *db_; }
  const PlanKnobs& knobs() const { return knobs_; }

  // The MVCC snapshot all operators of this plan read versioned tables
  // at. Resolved once at construction, so a query is snapshot-consistent
  // even while writers commit concurrently.
  Timestamp read_ts() const { return read_ts_; }
  PlanStats* stats() { return &stats_; }
  const PlanStats& stats() const { return stats_; }

  // The engine's morsel worker pool, or nullptr when executing serially.
  // Operators take the parallel path only when a pool is attached AND
  // knobs().threads > 1.
  engine::WorkerPool* worker_pool() const { return pool_; }
  void set_worker_pool(engine::WorkerPool* pool) { pool_ = pool; }

  // The query's cancellation token, or nullptr when the caller did not
  // provide one (nothing to poll; execution runs to completion).
  const CancelToken* cancel() const { return knobs_.cancel; }
  // Polls the token: OK to continue, Cancelled/DeadlineExceeded to stop.
  Status CheckCancel() const {
    return knobs_.cancel == nullptr ? Status::OK() : knobs_.cancel->Check();
  }

  // The query's span timeline, or nullptr when knobs().trace is off.
  // Created by EnsureTrace — the engine runner calls it with the pool's
  // true worker count before execution; Plan::Run falls back to
  // knobs().threads for serial/core callers. Idempotent; the handle is
  // also stored in stats()->trace so it survives this context.
  obs::QueryTrace* trace() const { return trace_.get(); }
  void EnsureTrace(size_t workers);

  // Registers an operator's output under `name`.
  Status Put(const std::string& name, std::unique_ptr<IndexedTable> table);
  // Fetches an intermediate by slot name.
  Result<const IndexedTable*> Get(const std::string& name) const;

 private:
  const Database* db_;
  PlanKnobs knobs_;
  Timestamp read_ts_ = 0;
  engine::WorkerPool* pool_ = nullptr;
  std::map<std::string, std::unique_ptr<IndexedTable>> slots_;
  PlanStats stats_;
  std::shared_ptr<obs::QueryTrace> trace_;
};

class Operator {
 public:
  virtual ~Operator() = default;
  virtual std::string name() const = 0;
  virtual Status Execute(ExecContext* ctx) = 0;

  // Planner-assigned stage label (e.g. "sel:date_sel"). When set, it
  // becomes the operator's row name in PlanStats so ExplainPlan() output
  // and executed statistics line up line-for-line.
  void set_label(std::string label) { label_ = std::move(label); }
  const std::string& label() const { return label_; }
  std::string display_name() const { return label_.empty() ? name() : label_; }

 private:
  std::string label_;
};

// The final, client-visible result rows (the engine iterates the result
// index in order while transferring to the client, §3 — order-by for free).
struct QueryResult {
  Schema schema;
  std::vector<std::vector<Value>> rows;

  std::string ToString(size_t limit = 20) const;
};

// One key of a final result sort (the ORDER-BY component the output index
// cannot provide; the planner attaches these to the plan).
struct ResultOrderKey {
  std::string column;
  bool descending = false;
};

class Plan {
 public:
  Plan() = default;

  Plan& Add(std::unique_ptr<Operator> op) {
    operators_.push_back(std::move(op));
    return *this;
  }
  template <typename Op, typename... Args>
  Plan& Emplace(Args&&... args) {
    return Add(std::make_unique<Op>(static_cast<Args&&>(args)...));
  }

  void set_result_slot(std::string slot) { result_slot_ = std::move(slot); }
  const std::string& result_slot() const { return result_slot_; }
  size_t num_operators() const { return operators_.size(); }

  // Post-sort applied to the extracted result rows by Execute(). Empty =
  // rows stay in output-index order (ORDER BY for free, §3).
  void set_result_order(std::vector<ResultOrderKey> keys) {
    result_order_ = std::move(keys);
  }
  const std::vector<ResultOrderKey>& result_order() const {
    return result_order_;
  }

  // Operator name / stage-label sequences (planner golden tests, tools).
  std::vector<std::string> OperatorNames() const;
  std::vector<std::string> OperatorLabels() const;

  // Executes all operators in order, recording per-operator statistics.
  Status Run(ExecContext* ctx) const;

  // Runs and extracts the final result rows from the result slot.
  Result<QueryResult> Execute(ExecContext* ctx) const;

 private:
  std::vector<std::unique_ptr<Operator>> operators_;
  std::string result_slot_;
  std::vector<ResultOrderKey> result_order_;
};

// Applies an ORDER-BY sort to extracted rows (stable; columns resolved
// by name against the result schema).
Status SortResult(const std::vector<ResultOrderKey>& keys,
                  QueryResult* result);

// Converts an indexed table (typically the aggregated output of the last
// operator) into client rows, decoding dictionary-coded columns.
Result<QueryResult> ExtractResult(const IndexedTable& table);

}  // namespace qppt

#endif  // QPPT_CORE_PLAN_H_
