#include "engine/session.h"

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/query/planner.h"
#include "core/sync_scan.h"
#include "engine/scheduler.h"
#include "dbg/invariants.h"
#include "dbg/lock_rank.h"
#include "engine/write_session.h"
#include "index/key_encoder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/cancel.h"
#include "util/failpoint.h"

namespace qppt::engine {

namespace {

// Session-layer metrics, resolved once (registry pointers are stable).
// Function-local statics rather than runner members: the counters are
// engine-wide totals even when tests spin up several runners.
struct SessionMetrics {
  obs::Counter* queries_total;
  obs::Gauge* queries_running;
  obs::Gauge* queries_waiting;
  obs::Histogram* admission_wait_ms;
  obs::Counter* read_leader_total;
  obs::Counter* read_follower_total;
  obs::Counter* versions_reclaimed_total;
  obs::Gauge* reclaim_horizon_lag;
  obs::Histogram* version_chain_length;
  obs::Counter* admission_timeouts_total;
  obs::Counter* queries_shed_total;
  obs::Counter* queries_cancelled_total;
  obs::Counter* deadline_exceeded_total;

  static SessionMetrics& Get() {
    static SessionMetrics m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      SessionMetrics s;
      s.queries_total = reg.GetCounter(
          "engine_queries_total", "Queries admitted and executed.");
      s.queries_running = reg.GetGauge(
          "engine_queries_running", "Queries currently executing.");
      s.queries_waiting = reg.GetGauge(
          "engine_queries_waiting",
          "Execute callers blocked on the admission semaphore.");
      s.admission_wait_ms = reg.GetHistogram(
          "engine_admission_wait_ms",
          obs::ExponentialBuckets(0.01, 4.0, 10),
          "Time queries waited for an admission slot, in ms.");
      s.read_leader_total = reg.GetCounter(
          "engine_read_leader_total",
          "Shared-read batches led (one index pass per leader).");
      s.read_follower_total = reg.GetCounter(
          "engine_read_follower_total",
          "Reads answered by another caller's shared scan.");
      s.versions_reclaimed_total = reg.GetCounter(
          "engine_versions_reclaimed_total",
          "MVCC versions unlinked by reclamation sweeps.");
      s.reclaim_horizon_lag = reg.GetGauge(
          "engine_reclaim_horizon_lag",
          "Commit timestamps between the newest commit and the oldest "
          "pinned snapshot at the last reclamation sweep.");
      s.version_chain_length = reg.GetHistogram(
          "engine_version_chain_length",
          {1, 2, 4, 8, 16, 32, 64, 128},
          "Version-chain lengths observed by reclamation sweeps.");
      s.admission_timeouts_total = reg.GetCounter(
          "engine_admission_timeouts_total",
          "Queries rejected because their admission-queue wait timed "
          "out.");
      s.queries_shed_total = reg.GetCounter(
          "engine_queries_shed_total",
          "Queries rejected immediately by load shedding (batch-priority "
          "shed threshold or admission queue limit).");
      s.queries_cancelled_total = reg.GetCounter(
          "engine_queries_cancelled_total",
          "Queries that returned Cancelled (client RequestCancel).");
      s.deadline_exceeded_total = reg.GetCounter(
          "engine_deadline_exceeded_total",
          "Queries that returned DeadlineExceeded.");
      return s;
    }();
    return m;
  }
};

}  // namespace

// ---- shared-read batching ----------------------------------------------------

struct EngineRunner::Batcher {
  struct Request {
    int64_t lo = 0;
    int64_t hi = 0;
    bool is_point = false;
    bool done = false;
    // The leader's verdict for this request: OK with `out` populated, or
    // the error that aborted the shared scan — every follower of a
    // failed batch gets the leader's Status instead of a silently-empty
    // result.
    Status status;
    std::vector<uint64_t> out;
  };

  explicit Batcher(const IndexedTable* t) : table(t) {}

  const IndexedTable* table;
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Request*> pending;
  bool leader_active = false;
};

namespace {

using Request = EngineRunner::Batcher::Request;

// Answers a batch of point requests against a KISS-indexed table with ONE
// synchronous index scan: the requested keys become a probe tree (values
// = request indexes) that is co-traversed with the data tree, skipping
// every subtree only one side uses — §4.2's join machinery serving N
// point queries in a single pass.
void AnswerKissPoints(const IndexedTable& table,
                      const std::vector<Request*>& points,
                      uint64_t* shared_scans) {
  const KissTree& data = *table.kiss();
  if (points.size() == 1) {
    KissTree::ValueRef vals;
    if (data.Lookup(IndexedTable::KissKeyOf(SlotFromInt64(points[0]->lo)),
                    &vals)) {
      vals.ForEach([&](uint64_t id) { points[0]->out.push_back(id); });
    }
    ++*shared_scans;
    return;
  }
  KissTree::Config cfg;
  cfg.root_bits = data.config().root_bits;
  KissTree probe(cfg);
  for (size_t i = 0; i < points.size(); ++i) {
    probe.Insert(IndexedTable::KissKeyOf(SlotFromInt64(points[i]->lo)), i);
  }
  SynchronousScan(probe, data,
                  [&](uint32_t, const KissTree::ValueRef& reqs,
                      const KissTree::ValueRef& ids) {
                    reqs.ForEach([&](uint64_t r) {
                      ids.ForEach([&](uint64_t id) {
                        points[r]->out.push_back(id);
                      });
                    });
                  });
  ++*shared_scans;
}

// Answers each range request with its own scans of its KISS key ranges
// (BaseIndex::KissRangesOf), in order, so every answer stays ascending
// and a batch never walks the keys between two requests.
void AnswerKissRanges(const IndexedTable& table,
                      const std::vector<Request*>& ranges,
                      uint64_t* shared_scans) {
  const KissTree& data = *table.kiss();
  for (Request* r : ranges) {
    BaseIndex::KissRanges k = BaseIndex::KissRangesOf(r->lo, r->hi);
    for (size_t i = 0; i < k.count; ++i) {
      data.ScanRange(k.lo[i], k.hi[i],
                     [&](uint32_t, const KissTree::ValueRef& ids) {
                       ids.ForEach([&](uint64_t id) { r->out.push_back(id); });
                     });
    }
    ++*shared_scans;
  }
}

// Prefix-tree fallback: per-request lookups on the encoded single-column
// key. Unsupported key shapes (multi-column composites, double keys —
// neither has int64 read semantics) leave the requests empty, matching
// the contract documented on EngineRunner::PointRead.
void AnswerPrefix(const IndexedTable& table,
                  const std::vector<Request*>& batch,
                  uint64_t* shared_scans) {
  const PrefixTree& data = *table.prefix();
  if (table.num_key_columns() != 1) return;
  size_t key_pos = table.key_column_positions()[0];
  if (table.schema().column(key_pos).type == ValueType::kDouble) return;
  KeyBuf lo, hi;
  for (Request* r : batch) {
    lo.clear();
    lo.AppendI64(r->lo);
    if (r->is_point) {
      const ValueList* vals = data.Lookup(lo.data());
      if (vals != nullptr) {
        vals->ForEach([&](uint64_t id) { r->out.push_back(id); });
      }
    } else {
      hi.clear();
      hi.AppendI64(r->hi);
      data.ScanRange(lo.data(), hi.data(),
                     [&](const PrefixTree::ContentNode& c) {
                       data.ValuesOf(&c)->ForEach(
                           [&](uint64_t id) { r->out.push_back(id); });
                     });
    }
    ++*shared_scans;
  }
}

}  // namespace

EngineRunner::EngineRunner(EngineConfig config) : config_(config) {
  // Arm env-configured failpoints (QPPT_FAILPOINTS, util/failpoint.h)
  // once per process, so any binary that builds an engine honors the
  // documented chaos syntax. A parse error is loud but non-fatal: a bad
  // chaos spec must not take down a production binary.
  static std::once_flag failpoints_armed;
  std::call_once(failpoints_armed, [] {
    Status st = fail::ArmFromEnv();
    if (!st.ok()) {
      std::fprintf(stderr, "qppt engine: %s\n", st.ToString().c_str());
    }
  });
  if (config_.threads == 0) config_.threads = 1;
  // More morsel workers than hardware threads only adds context-switch
  // overhead (the 1-vCPU oversubscription tax): clamp, and say so once
  // per process so a misconfigured deployment is visible.
  size_t hw = std::thread::hardware_concurrency();
  if (config_.clamp_threads_to_hardware && hw > 0 && config_.threads > hw) {
    static std::once_flag logged;
    size_t requested = config_.threads;
    std::call_once(logged, [&] {
      std::fprintf(stderr,
                   "qppt engine: clamping %zu workers to "
                   "hardware_concurrency=%zu\n",
                   requested, hw);
    });
    config_.threads = hw;
  }
  if (config_.threads > 1) {
    pool_ = std::make_unique<WorkerPool>(config_.threads);
  }
}

EngineRunner::~EngineRunner() = default;

std::shared_ptr<EngineRunner::Batcher> EngineRunner::BatcherFor(
    const IndexedTable& table) {
  dbg::RankedLockGuard lock(dbg::LockRank::kReadBatcherMap, batchers_mu_);
  auto& slot = batchers_[&table];
  if (slot == nullptr) slot = std::make_shared<Batcher>(&table);
  return slot;
}

void EngineRunner::ReleaseReads(const IndexedTable& table) {
  std::shared_ptr<Batcher> victim;
  {
    dbg::RankedLockGuard lock(dbg::LockRank::kReadBatcherMap,
                              batchers_mu_);
    auto it = batchers_.find(&table);
    if (it == batchers_.end()) return;
    victim = std::move(it->second);
    batchers_.erase(it);
  }
  // Readers in flight hold their own reference; the batcher dies with the
  // last of them (their leader answers them normally). New reads on the
  // same table get a fresh batcher.
}

Result<std::vector<uint64_t>> EngineRunner::PointRead(
    const IndexedTable& table, int64_t key) {
  return RangeRead(table, key, key);
}

Result<std::vector<uint64_t>> EngineRunner::RangeRead(
    const IndexedTable& table, int64_t lo, int64_t hi) {
  // relaxed: statistics counter; no ordering needed.
  reads_.fetch_add(1, std::memory_order_relaxed);
  if (table.aggregated() || lo > hi) return std::vector<uint64_t>{};
  // Hold a reference for the whole read: a concurrent ReleaseReads(table)
  // must not destroy the batcher under a waiting follower.
  std::shared_ptr<Batcher> b = BatcherFor(table);
  Batcher::Request req;
  req.lo = lo;
  req.hi = hi;
  req.is_point = lo == hi;

  dbg::RankedUniqueLock lock(dbg::LockRank::kReadBatcher, b->mu);
  b->pending.push_back(&req);
  b->cv.notify_all();  // a gathering leader may now be at its batch cap
  if (b->leader_active) {
    // Follower: the leader (or a successor) answers this request.
    SessionMetrics::Get().read_follower_total->Add();
    b->cv.wait(lock.lock(), [&] { return req.done; });
    if (!req.status.ok()) return req.status;
    return std::move(req.out);
  }
  b->leader_active = true;
  SessionMetrics::Get().read_leader_total->Add();
  // Gather co-arriving requests: flush at the batch cap or after the
  // window, whichever comes first.
  b->cv.wait_for(lock.lock(),
                 std::chrono::microseconds(config_.read_batch_window_us),
                 [&] { return b->pending.size() >= config_.read_batch_max; });
  std::vector<Batcher::Request*> batch = std::move(b->pending);
  b->pending.clear();
  b->leader_active = false;
  lock.unlock();

  // relaxed: statistics counter; no ordering needed.
  batched_keys_.fetch_add(batch.size(), std::memory_order_relaxed);
  uint64_t scans = 0;
  Status scan_status;
  try {
    QPPT_FAILPOINT(read_batch_scan);
    if (table.kind() == IndexedTable::Kind::kKiss) {
      std::vector<Batcher::Request*> points;
      std::vector<Batcher::Request*> ranges;
      for (Batcher::Request* r : batch) {
        (r->is_point ? points : ranges).push_back(r);
      }
      if (!points.empty()) AnswerKissPoints(table, points, &scans);
      if (!ranges.empty()) AnswerKissRanges(table, ranges, &scans);
    } else {
      AnswerPrefix(table, batch, &scans);
    }
  } catch (...) {
    // A throwing scan must not leave followers blocked on stack-local
    // requests the leader is unwinding past — every request of the batch
    // gets the error, then everyone is woken.
    scan_status = StatusFromException(std::current_exception());
  }
  // relaxed: statistics counter; no ordering needed.
  shared_scans_.fetch_add(scans, std::memory_order_relaxed);

  lock.relock();
  for (Batcher::Request* r : batch) {
    if (!scan_status.ok()) {
      r->status = scan_status;
      r->out.clear();  // partial gather from the aborted scan
    }
    r->done = true;
  }
  b->cv.notify_all();
  if (!req.status.ok()) return req.status;
  return std::move(req.out);
}

EngineRunner::ReadStats EngineRunner::read_stats() const {
  ReadStats s;
  // relaxed (all three): statistics snapshot; staleness is fine.
  s.reads = reads_.load(std::memory_order_relaxed);
  s.shared_scans = shared_scans_.load(std::memory_order_relaxed);
  s.batched_keys = batched_keys_.load(std::memory_order_relaxed);
  return s;
}

// ---- query admission ---------------------------------------------------------

// Tiered admission slot. Acquire() returns OK once a slot is held, or
// an error when the query is shed, its queue wait times out, or its
// cancel token fires mid-wait. Releases on destruction (any exit path,
// including error returns) — a failed Acquire holds nothing, so the
// destructor is a no-op then.
struct EngineRunner::AdmitSlot {
  AdmitSlot() = default;

  Status Acquire(EngineRunner* runner, const PlanKnobs& knobs) {
    runner_ = runner;
    SessionMetrics& m = SessionMetrics::Get();
    const EngineConfig& cfg = runner_->config_;
    if (cfg.max_concurrent_queries == 0) {
      m.queries_running->Add(1);
      gauge_held_ = true;
      return Status::OK();
    }
    const bool is_batch = knobs.priority == QueryPriority::kBatch;
    // Per-query knob wins over the engine-wide default; negative means
    // wait indefinitely (the seed behaviour).
    const double timeout_ms = knobs.queue_timeout_ms >= 0
                                  ? knobs.queue_timeout_ms
                                  : cfg.admission_timeout_ms;
    Timer wait;
    dbg::RankedUniqueLock lock(dbg::LockRank::kAdmission,
                               runner_->admit_mu_);
    auto can_admit = [&] {
      if (runner_->queries_running_ >= cfg.max_concurrent_queries) {
        return false;
      }
      // Batch queries additionally contend for the (smaller) batch
      // pool, so interactive work always has headroom.
      return !(is_batch && cfg.max_concurrent_batch != 0 &&
               runner_->batch_running_ >= cfg.max_concurrent_batch);
    };
    if (!can_admit()) {
      // Load shedding happens before joining the queue: under overload
      // a fast reject beats a slow timeout.
      // relaxed: the counter is only mutated under admit_mu_ (held
      // here); the atomic exists for lock-free stats readers.
      size_t waiting =
          runner_->queries_waiting_.load(std::memory_order_relaxed);
      if (is_batch && cfg.shed_batch_waiting_threshold != 0 &&
          waiting >= cfg.shed_batch_waiting_threshold) {
        m.queries_shed_total->Add();
        return Status::ResourceExhausted(
            "batch query shed: admission queue over the batch shedding "
            "threshold");
      }
      if (cfg.admission_queue_limit != 0 &&
          waiting >= cfg.admission_queue_limit) {
        m.queries_shed_total->Add();
        return Status::ResourceExhausted(
            "query rejected: admission queue full");
      }
      // relaxed: statistics counter; no ordering needed.
      runner_->queries_waiting_.fetch_add(1, std::memory_order_relaxed);
      m.queries_waiting->Add(1);
      Status st;
      const bool has_timeout = timeout_ms >= 0;
      const auto queue_deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double, std::milli>(
                  has_timeout ? timeout_ms : 0));
      while (!can_admit()) {
        if (knobs.cancel != nullptr) {
          st = knobs.cancel->Check();
          if (!st.ok()) break;
        }
        if (has_timeout &&
            std::chrono::steady_clock::now() >= queue_deadline) {
          m.admission_timeouts_total->Add();
          st = Status::ResourceExhausted(
              "query timed out waiting for an admission slot");
          break;
        }
        // Bounded slices: an external RequestCancel (or a deadline set
        // on the token) cannot notify admit_cv_, so the wait polls.
        runner_->admit_cv_.wait_for(lock.lock(),
                                    std::chrono::milliseconds(1));
      }
      m.queries_waiting->Add(-1);
      // relaxed: statistics counter; no ordering needed.
      runner_->queries_waiting_.fetch_sub(1, std::memory_order_relaxed);
      if (!st.ok()) return st;
    }
    ++runner_->queries_running_;
    if (is_batch) {
      ++runner_->batch_running_;
      batch_held_ = true;
    }
    held_ = true;
    m.queries_running->Add(1);
    gauge_held_ = true;
    m.admission_wait_ms->Observe(wait.ElapsedMs());
    return Status::OK();
  }

  ~AdmitSlot() {
    if (gauge_held_) SessionMetrics::Get().queries_running->Add(-1);
    if (!held_) return;
    {
      dbg::RankedLockGuard lock(dbg::LockRank::kAdmission,
                                runner_->admit_mu_);
      --runner_->queries_running_;
      if (batch_held_) --runner_->batch_running_;
    }
    // notify_all, not notify_one: with tiered classes a single wake
    // could land on a batch waiter still blocked by the batch cap while
    // an interactive waiter could have run.
    runner_->admit_cv_.notify_all();
  }
  AdmitSlot(const AdmitSlot&) = delete;
  AdmitSlot& operator=(const AdmitSlot&) = delete;

  EngineRunner* runner_ = nullptr;
  bool held_ = false;        // semaphore slot taken (admission control on)
  bool batch_held_ = false;  // slot also counts against the batch cap
  bool gauge_held_ = false;  // queries_running gauge incremented
};

// Pins one query's MVCC snapshot for its whole flight: resolves the
// read timestamp (explicit knob, or latest-committed at admission) and
// registers it so ReclaimVersions never unlinks versions the query may
// still visit. Unregisters on any exit path.
struct EngineRunner::ReadPin {
  ReadPin(EngineRunner* runner, const Database& db, PlanKnobs* knobs)
      : runner_(runner) {
    ts_ = knobs->read_ts != kTsInfinity ? knobs->read_ts
                                        : db.txn_manager().last_commit_ts();
    knobs->read_ts = ts_;
    dbg::RankedLockGuard lock(dbg::LockRank::kReadPins,
                              runner_->pins_mu_);
    runner_->pinned_read_ts_.insert(ts_);
  }
  ~ReadPin() {
    dbg::RankedLockGuard lock(dbg::LockRank::kReadPins,
                              runner_->pins_mu_);
    runner_->pinned_read_ts_.erase(runner_->pinned_read_ts_.find(ts_));
  }
  ReadPin(const ReadPin&) = delete;
  ReadPin& operator=(const ReadPin&) = delete;

  EngineRunner* runner_;
  Timestamp ts_;
};

Result<QueryResult> EngineRunner::Execute(const Database& db,
                                          const Plan& plan, PlanKnobs knobs,
                                          PlanStats* stats) {
  // Caller stats are overwritten wholesale below; Clear() here makes a
  // reused PlanStats safe even if the execution errors out before the
  // assignment (PlanStats contract, core/stats.h).
  if (stats != nullptr) stats->Clear();
  Timer wall;
  SessionMetrics& m = SessionMetrics::Get();
  auto fail = [&m](Status st) -> Status {
    if (st.IsCancelled()) m.queries_cancelled_total->Add();
    if (st.IsDeadlineExceeded()) m.deadline_exceeded_total->Add();
    return st;
  };
  // A per-query deadline chains a local token to the caller's so queue
  // wait and execution share one clock without mutating the caller's
  // token; an explicit RequestCancel on the parent still propagates.
  CancelToken deadline_token(knobs.cancel);
  if (knobs.deadline_ms > 0) {
    deadline_token.SetDeadlineAfter(knobs.deadline_ms);
    knobs.cancel = &deadline_token;
  }
  AdmitSlot slot;
  Status admit = slot.Acquire(this, knobs);
  if (!admit.ok()) return fail(std::move(admit));
  // relaxed: statistics counter; no ordering needed.
  queries_admitted_.fetch_add(1, std::memory_order_relaxed);
  m.queries_total->Add();
  knobs.threads = config_.threads;
  ReadPin pin(this, db, &knobs);
  ExecContext ctx(&db, knobs);
  if (pool_ != nullptr && config_.threads > 1) {
    ctx.set_worker_pool(pool_.get());
    // Create the trace (knobs.trace) with the pool's true worker count so
    // every worker id maps to its own span lane.
    ctx.EnsureTrace(pool_->num_workers());
  }
  Result<QueryResult> result = plan.Execute(&ctx);
  if (!result.ok()) return fail(result.status());
  if (stats != nullptr) {
    *stats = *ctx.stats();
    stats->wall_ms = wall.ElapsedMs();
  }
  return std::move(result).value();
}

Result<QueryResult> EngineRunner::Execute(const Database& db,
                                          const query::QuerySpec& spec,
                                          PlanKnobs knobs, PlanStats* stats) {
  QPPT_ASSIGN_OR_RETURN(Plan plan, query::PlanQuery(db, spec, knobs));
  return Execute(db, plan, knobs, stats);
}

Result<PreparedQuery> EngineRunner::Prepare(const Database& db,
                                            query::QuerySpec spec) {
  auto state = std::make_shared<PreparedQuery::State>();
  state->db = &db;
  state->spec = std::move(spec);
  PreparedQuery prepared(std::move(state));
  // Validate the spec and warm the default-knob cache entry; a spec the
  // planner rejects fails here, not on the hot path.
  QPPT_RETURN_NOT_OK(prepared.GetPlan(PlanKnobs{}, {}).status());
  return prepared;
}

Result<QueryResult> EngineRunner::Execute(const PreparedQuery& prepared,
                                          const query::QueryParams& params,
                                          PlanKnobs knobs, PlanStats* stats) {
  QPPT_ASSIGN_OR_RETURN(std::shared_ptr<const Plan> plan,
                        prepared.GetPlan(knobs, params));
  return Execute(prepared.db(), *plan, knobs, stats);
}

// ---- the write path ----------------------------------------------------------

WriteSession EngineRunner::OpenWriteSession(Database* db) {
  return WriteSession(this, db);
}

size_t EngineRunner::queries_running() const {
  dbg::RankedLockGuard lock(dbg::LockRank::kAdmission, admit_mu_);
  return queries_running_;
}

size_t EngineRunner::pinned_snapshots() const {
  dbg::RankedLockGuard lock(dbg::LockRank::kReadPins, pins_mu_);
  return pinned_read_ts_.size();
}

Timestamp EngineRunner::OldestActiveReadTs(const Database& db) const {
  dbg::RankedLockGuard lock(dbg::LockRank::kReadPins, pins_mu_);
  if (pinned_read_ts_.empty()) return db.txn_manager().last_commit_ts();
  return *pinned_read_ts_.begin();
}

size_t EngineRunner::ReclaimVersions(Database* db) {
  SessionMetrics& m = SessionMetrics::Get();
  Timestamp horizon = OldestActiveReadTs(*db);
  // How far pinned snapshots hold reclamation behind the newest commit.
  m.reclaim_horizon_lag->Set(static_cast<int64_t>(
      db->txn_manager().last_commit_ts() - horizon));
  dbg::RankedLockGuard lock(dbg::LockRank::kDatabaseWrite,
                            db->write_mutex());
  // kReadPins ranks inside kDatabaseWrite, so re-reading the pin
  // registry here is rank-legal: with the write lock held no new commit
  // can advance the no-pins fallback, and an explicit time-travel pin
  // taken after the horizon was computed is exactly the bug this check
  // is for.
  dbg::CheckReclaimHorizon(horizon, OldestActiveReadTs(*db));
  // Chaos hook: the sweep holds the writer lock, so an injected fault
  // here must unwind without wedging writers or corrupting chains.
  QPPT_FAILPOINT(reclaim_sweep);
  size_t unlinked = 0;
  for (const auto& name : db->versioned_table_names()) {
    MvccTable* table = *db->versioned_table(name);
    // Chain lengths BEFORE the sweep: the distribution reclamation is up
    // against, not the one it just produced.
    table->ForEachChainLength([&](size_t len) {
      m.version_chain_length->Observe(static_cast<double>(len));
    });
    unlinked += table->ReclaimBefore(horizon);
    dbg::CheckVersionChains(*table);
  }
  m.versions_reclaimed_total->Add(unlinked);
  return unlinked;
}

Result<std::string> EngineRunner::ExplainAnalyze(const Database& db,
                                                 const query::QuerySpec& spec,
                                                 PlanKnobs knobs,
                                                 PlanStats* stats) {
  QPPT_ASSIGN_OR_RETURN(std::string explain,
                        query::ExplainPlan(db, spec, knobs));
  PlanStats executed;
  QPPT_RETURN_NOT_OK(Execute(db, spec, knobs, &executed).status());

  // Interleave: ExplainPlan emits one "  <label> <op> <detail>" line per
  // planned stage, in plan order, and every operator appends exactly one
  // PlanStats row — so stage line i pairs with operators[i]. The
  // "  order-by:" trailer and the header are passed through.
  std::string out;
  size_t row = 0;
  size_t pos = 0;
  char buf[192];
  while (pos < explain.size()) {
    size_t eol = explain.find('\n', pos);
    if (eol == std::string::npos) eol = explain.size();
    std::string line = explain.substr(pos, eol - pos);
    pos = eol + 1;
    out += line + "\n";
    bool is_stage = line.size() > 2 && line[0] == ' ' && line[1] == ' ' &&
                    line[2] != ' ' && line.rfind("  order-by:", 0) != 0;
    if (!is_stage || row >= executed.operators.size()) continue;
    const OperatorStats& op = executed.operators[row++];
    std::snprintf(buf, sizeof(buf),
                  "    -> %.3f ms (materialize %.3f, index %.3f, merge "
                  "%.3f) | in %llu out %llu tuples, %llu keys",
                  op.total_ms, op.materialize_ms, op.index_ms, op.merge_ms,
                  static_cast<unsigned long long>(op.input_tuples),
                  static_cast<unsigned long long>(op.output_tuples),
                  static_cast<unsigned long long>(op.output_keys));
    out += buf;
    if (op.morsels > 0) {
      std::snprintf(buf, sizeof(buf), " | morsels %llu",
                    static_cast<unsigned long long>(op.morsels));
      out += buf;
    }
    out += "\n";
  }
  std::snprintf(buf, sizeof(buf),
                "executed: total %.3f ms, wall %.3f ms, threads %zu, "
                "read_ts %llu\n",
                executed.total_ms, executed.wall_ms, executed.threads,
                static_cast<unsigned long long>(executed.read_ts));
  out += buf;
  if (stats != nullptr) *stats = std::move(executed);
  return out;
}

}  // namespace qppt::engine
