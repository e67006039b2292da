// The engine front door: multi-query admission over one worker pool.
//
// EngineRunner owns the WorkerPool and admits queries from many client
// threads at once — each query's parallel operators submit morsel batches
// that interleave over the shared workers, so N clients with W workers
// share the machine instead of oversubscribing it.
//
// It also serves *index reads* (point and range lookups against one
// IndexedTable): concurrent compatible reads are batched group-commit
// style — the first waiter becomes the batch leader, gathers requests
// arriving within a short window, and answers the whole batch. On a
// KISS index the point reads share ONE pass: they build a probe
// KISS-Tree of the requested keys and co-traverse it with the data tree
// via the synchronous index scan (core/sync_scan.h) — the same
// skip-subtree machinery QPPT uses for joins, reused as a multi-query
// optimization. Each range read scans only its own key range.

#ifndef QPPT_ENGINE_SESSION_H_
#define QPPT_ENGINE_SESSION_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/base_index.h"
#include "core/indexed_table.h"
#include "core/plan.h"
#include "core/query/query_spec.h"
#include "engine/prepared.h"
#include "util/status.h"

namespace qppt::engine {

class WorkerPool;

struct EngineConfig {
  // Morsel workers. 1 = serial execution (no pool; 0 counts as 1); the
  // default uses every hardware thread. Any other value is used as
  // given, also above hardware_concurrency().
  size_t threads = std::thread::hardware_concurrency();
  // Shared-read batching: a leader flushes once `read_batch_max` requests
  // are pending or `read_batch_window_us` elapsed, whichever is first.
  size_t read_batch_max = 64;
  int64_t read_batch_window_us = 100;
  // Admission control: queries executing at once (0 = unlimited). Excess
  // Execute callers wait for a slot (see the timeout/shedding knobs
  // below); queries_waiting() reports how many are waiting.
  size_t max_concurrent_queries = 0;
  // Tiered admission: of the slots above, how many kBatch-priority
  // queries may run at once (0 = no separate cap). kInteractive work can
  // always use every slot; the batch cap keeps background flights from
  // starving interactive clients.
  size_t max_concurrent_batch = 0;
  // Default time a query may wait for an admission slot before Execute
  // gives up with ResourceExhausted. Negative = wait forever (the
  // pre-tiered behavior). PlanKnobs::queue_timeout_ms overrides
  // per query.
  double admission_timeout_ms = -1;
  // Bound on the admission wait queue (0 = unbounded): a query that
  // would have to wait while `admission_queue_limit` others already are
  // is rejected immediately with ResourceExhausted.
  size_t admission_queue_limit = 0;
  // Load shedding: when more than this many queries are waiting, kBatch
  // work is rejected immediately instead of queueing (0 = off).
  // Interactive queries still queue.
  size_t shed_batch_waiting_threshold = 0;
};

class WriteSession;

class EngineRunner {
 public:
  explicit EngineRunner(EngineConfig config = EngineConfig{});
  ~EngineRunner();
  EngineRunner(const EngineRunner&) = delete;
  EngineRunner& operator=(const EngineRunner&) = delete;

  size_t threads() const { return config_.threads; }
  // The shared pool, or nullptr when configured serial (threads <= 1).
  WorkerPool* pool() { return pool_.get(); }

  // Admits and executes one query. Safe to call from many client threads
  // concurrently; each call gets a private ExecContext wired to the
  // shared pool (none when configured serial: every operator runs inline).
  //
  // Admission: with max_concurrent_queries set, excess callers wait here
  // until a slot frees — bounded by the queue timeout
  // (knobs.queue_timeout_ms / EngineConfig::admission_timeout_ms →
  // ResourceExhausted), the queue limit and batch-shedding knobs
  // (immediate ResourceExhausted), and knobs.priority's class cap.
  //
  // Cancellation: knobs.cancel and/or knobs.deadline_ms bound the whole
  // call including the admission wait; a stopped query returns
  // Cancelled/DeadlineExceeded with the admission slot, snapshot pin,
  // and partial outputs released.
  [[nodiscard]] Result<QueryResult> Execute(const Database& db,
                                            const Plan& plan, PlanKnobs knobs,
                                            PlanStats* stats = nullptr);

  // Declarative front door: plans `spec` with the rule-based planner
  // (core/query/planner.h) and executes the result.
  [[nodiscard]] Result<QueryResult> Execute(const Database& db,
                                            const query::QuerySpec& spec,
                                            PlanKnobs knobs,
                                            PlanStats* stats = nullptr);

  // EXPLAIN ANALYZE: plans `spec`, executes it through the normal
  // admission path, and returns the ExplainPlan rendering with each
  // stage line followed by that stage's executed statistics (wall time,
  // cardinalities, morsel counts, merge time) plus a trailing execution
  // summary. The planner's stage labels guarantee the explain lines and
  // the PlanStats rows align line-for-line. `stats`, when given,
  // receives the same executed statistics (including the trace handle
  // when knobs.trace is set).
  [[nodiscard]] Result<std::string> ExplainAnalyze(
      const Database& db, const query::QuerySpec& spec,
      PlanKnobs knobs = PlanKnobs{}, PlanStats* stats = nullptr);

  // Compiles `spec` once against `db` and returns a cached-plan handle;
  // fails fast on a spec the planner rejects. `db` must outlive every
  // execution of the prepared query.
  [[nodiscard]] Result<PreparedQuery> Prepare(const Database& db,
                                              query::QuerySpec spec);

  // Executes a prepared query, re-binding `params` into the predicate
  // constants. Replanning is skipped whenever this (knobs, params)
  // combination ran before on the same PreparedQuery.
  [[nodiscard]] Result<QueryResult> Execute(
      const PreparedQuery& prepared, const query::QueryParams& params = {},
      PlanKnobs knobs = PlanKnobs{}, PlanStats* stats = nullptr);

  // ---- the write path (HTAP) ------------------------------------------------
  //
  // Opens one read-write transaction against `db`'s versioned tables.
  // Concurrent with any number of queries: queries pin their snapshot at
  // admission and never see a half-committed transaction. See
  // engine/write_session.h for the full model.
  WriteSession OpenWriteSession(Database* db);

  // The oldest read timestamp any in-flight query is pinned to (the
  // reclamation horizon). With no query in flight this is the latest
  // committed timestamp — everything superseded is reclaimable.
  Timestamp OldestActiveReadTs(const Database& db) const;

  // Epoch-deferred reclamation sweep: unlinks version-chain tails no
  // active or future snapshot can reach, across all versioned tables.
  // Returns the number of versions unlinked. Safe to call any time (takes
  // the database write lock; readers are never blocked).
  size_t ReclaimVersions(Database* db);

  struct WriteStats {
    uint64_t committed = 0;
    uint64_t aborted = 0;
    // Conflict retries performed by engine::RetryTxn (engine/retry.h).
    uint64_t retries = 0;
  };
  WriteStats write_stats() const {
    // relaxed (all): statistics snapshot; staleness is fine.
    return {txns_committed_.load(std::memory_order_relaxed),
            txns_aborted_.load(std::memory_order_relaxed),
            txn_retries_.load(std::memory_order_relaxed)};
  }
  // Accounting hook for engine/retry.h (one first-updater-wins conflict
  // retried); surfaces in write_stats().retries.
  void NoteTxnRetry() {
    // relaxed: statistics counter; no ordering needed.
    txn_retries_.fetch_add(1, std::memory_order_relaxed);
  }

  // All tuple ids stored under `key` in `table`, in unspecified duplicate
  // order. Concurrent callers against the same table are answered by one
  // shared scan per batch. Supported tables: plain (non-aggregated) with
  // a single int64-like key column; aggregated, composite-keyed, or
  // double-keyed tables yield empty results. `table` must outlive every
  // read; the runner keeps a per-table batcher until ReleaseReads(table)
  // or destruction. If the leader's scan fails (e.g. allocation failure),
  // the leader's error Status is propagated to EVERY request of the
  // batch — followers never observe silently-empty results.
  [[nodiscard]] Result<std::vector<uint64_t>> PointRead(
      const IndexedTable& table, int64_t key);
  // All tuple ids with keys in [lo, hi], in ascending key order. Same
  // contract as PointRead, except that the leader answers each range
  // with its own scan rather than one scan shared by the batch.
  [[nodiscard]] Result<std::vector<uint64_t>> RangeRead(
      const IndexedTable& table, int64_t lo, int64_t hi);

  // Evicts the per-table read batcher, allowing `table` to be destroyed
  // (e.g. a short-lived intermediate). Reads already in flight finish
  // against the old batcher; later reads get a fresh one.
  void ReleaseReads(const IndexedTable& table);

  struct ReadStats {
    uint64_t reads = 0;         // PointRead + RangeRead calls
    uint64_t shared_scans = 0;  // index passes actually executed
    uint64_t batched_keys = 0;  // requests answered by those passes
  };
  ReadStats read_stats() const;

  uint64_t queries_admitted() const {
    // relaxed: statistics counter; no ordering needed.
    return queries_admitted_.load(std::memory_order_relaxed);
  }
  // Execute callers currently waiting for an admission slot.
  uint64_t queries_waiting() const {
    // relaxed: statistics counter; no ordering needed.
    return queries_waiting_.load(std::memory_order_relaxed);
  }
  // Queries currently holding an admission slot (0 when admission
  // control is off). Tests assert this drains to zero after
  // cancellations/timeouts — a leak here is a lost slot.
  size_t queries_running() const;
  // Snapshots currently pinned by in-flight queries; drains to zero with
  // them.
  size_t pinned_snapshots() const;

  struct Batcher;  // defined in session.cc (shared-read group commit)

 private:
  friend class WriteSession;
  struct AdmitSlot;  // RAII admission-semaphore guard (session.cc)
  struct ReadPin;    // RAII pinned-snapshot registry entry (session.cc)

  std::shared_ptr<Batcher> BatcherFor(const IndexedTable& table);

  void NoteCommit() {
    // relaxed: statistics counter; no ordering needed.
    txns_committed_.fetch_add(1, std::memory_order_relaxed);
  }
  void NoteAbort() {
    // relaxed: statistics counter; no ordering needed.
    txns_aborted_.fetch_add(1, std::memory_order_relaxed);
  }

  EngineConfig config_;
  std::unique_ptr<WorkerPool> pool_;
  std::atomic<uint64_t> queries_admitted_{0};
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> shared_scans_{0};
  std::atomic<uint64_t> batched_keys_{0};
  std::mutex batchers_mu_;
  std::map<const IndexedTable*, std::shared_ptr<Batcher>> batchers_;
  // Tiered admission state (max_concurrent_queries > 0). Both counts are
  // guarded by admit_mu_; kBatch queries count in both.
  mutable std::mutex admit_mu_;
  std::condition_variable admit_cv_;
  size_t queries_running_ = 0;
  size_t batch_running_ = 0;
  std::atomic<uint64_t> queries_waiting_{0};
  // Pinned query snapshots (multiset: many queries may pin the same ts);
  // the minimum is the version-reclamation horizon.
  mutable std::mutex pins_mu_;
  std::multiset<Timestamp> pinned_read_ts_;
  std::atomic<uint64_t> txns_committed_{0};
  std::atomic<uint64_t> txns_aborted_{0};
  std::atomic<uint64_t> txn_retries_{0};
};

}  // namespace qppt::engine

#endif  // QPPT_ENGINE_SESSION_H_
