#include "engine/scheduler.h"

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "dbg/invariants.h"
#include "dbg/lock_rank.h"
#include "obs/metrics.h"
#include "util/failpoint.h"

namespace qppt::engine {

namespace {

uint64_t ElapsedNs(std::chrono::steady_clock::time_point t0,
                   std::chrono::steady_clock::time_point t1) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

// True while this thread is executing a morsel body (either on a pool
// worker or on the submitter via the inline no-worker path). Guards the
// documented "Run must not be called from inside a morsel" rule: a
// nested submit would block the worker on done_cv_ while its own batch
// still counts it as outstanding — a silent deadlock. The dbg invariant
// turns that into a deterministic abort.
thread_local bool t_in_morsel = false;

struct InMorselScope {
  InMorselScope() { t_in_morsel = true; }
  ~InMorselScope() { t_in_morsel = false; }
  InMorselScope(const InMorselScope&) = delete;
  InMorselScope& operator=(const InMorselScope&) = delete;
};

}  // namespace

WorkerPool::WorkerPool(size_t threads) {
  auto& reg = obs::MetricsRegistry::Global();
  tasks_executed_ = reg.GetCounter(
      "engine_tasks_executed_total",
      "Morsels executed by the worker pool (sharded by worker id).");
  tasks_stolen_ = reg.GetCounter(
      "engine_tasks_stolen_total",
      "Morsels taken from another worker's deque (sharded by thief id).");
  steal_failures_ = reg.GetCounter(
      "engine_steal_failures_total",
      "Times a worker found every deque empty and went to sleep.");
  worker_busy_ns_ = reg.GetCounter(
      "engine_worker_busy_ns_total",
      "Nanoseconds workers spent executing morsels (sharded by worker id).");
  worker_idle_ns_ = reg.GetCounter(
      "engine_worker_idle_ns_total",
      "Nanoseconds workers spent parked waiting for work (sharded by "
      "worker id).");
  queue_depth_ = reg.GetGauge(
      "engine_queue_depth", "Morsels queued in worker deques, not yet begun.");
  if (threads == 0) return;
  deques_.resize(threads);
  workers_.reserve(threads);
  for (size_t w = 0; w < threads; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

WorkerPool::~WorkerPool() {
  {
    dbg::RankedLockGuard lock(dbg::LockRank::kScheduler, mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool WorkerPool::PopOrStealLocked(size_t worker, Item* item, bool* stolen) {
  *stolen = false;
  std::deque<Item>& own = deques_[worker];
  if (!own.empty()) {
    *item = own.back();  // own work LIFO: best cache locality
    own.pop_back();
    return true;
  }
  size_t n = deques_.size();
  for (size_t k = 1; k < n; ++k) {
    std::deque<Item>& victim = deques_[(worker + k) % n];
    if (!victim.empty()) {
      *item = victim.front();  // steal FIFO: take the coldest morsel
      victim.pop_front();
      *stolen = true;
      return true;
    }
  }
  return false;
}

void WorkerPool::WorkerLoop(size_t worker) {
  using SteadyClock = std::chrono::steady_clock;
  dbg::NoteLockAcquired(dbg::LockRank::kScheduler);
  // lock-rank: manual — the unlocked morsel-execution window below must
  // drop and re-note the rank token precisely (RankedUniqueLock's token
  // would claim the rank across the window and veto locks the morsel
  // body legitimately takes at lower ranks).
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    Item item;
    bool stolen = false;
    if (PopOrStealLocked(worker, &item, &stolen)) {
      queue_depth_->Add(-1);
      Batch* batch = item.batch;
      bool skip = batch->failed;
      std::exception_ptr error;
      if (!skip) {
        lock.unlock();
        dbg::NoteLockReleased(dbg::LockRank::kScheduler);
        if (stolen) tasks_stolen_->AddShard(worker);
        SteadyClock::time_point t0 = SteadyClock::now();
        try {
          InMorselScope in_morsel;
          (*batch->fn)(worker, item.index);
        } catch (...) {
          error = std::current_exception();
        }
        tasks_executed_->AddShard(worker);
        worker_busy_ns_->AddShard(worker, ElapsedNs(t0, SteadyClock::now()));
        dbg::NoteLockAcquired(dbg::LockRank::kScheduler);
        lock.lock();
      }
      if (error) {
        batch->failed = true;
        if (!batch->error) batch->error = error;
      }
      if (--batch->outstanding == 0) done_cv_.notify_all();
      continue;
    }
    if (stop_) return;
    steal_failures_->AddShard(worker);
    SteadyClock::time_point idle0 = SteadyClock::now();
    work_cv_.wait(lock);
    worker_idle_ns_->AddShard(worker, ElapsedNs(idle0, SteadyClock::now()));
  }
}

void WorkerPool::Run(size_t num_morsels, const MorselFn& fn) {
  if (num_morsels == 0) return;
  if (dbg::InvariantsEnabled() && t_in_morsel) {
    std::fprintf(stderr,
                 "qppt dbg: WorkerPool::Run called from inside a morsel — "
                 "nested batches deadlock (the worker would block on its "
                 "own batch). Restructure the operator to submit one "
                 "batch from the driver thread.\n");
    std::abort();
  }
  QPPT_FAILPOINT(sched_submit);
  if (deques_.empty()) {
    // No workers: inline serial execution, worker id 0. The in-morsel
    // scope covers this path too — the nested-Run rule is about batch
    // semantics, not just the deadlock mechanics of pooled mode.
    InMorselScope in_morsel;
    for (size_t m = 0; m < num_morsels; ++m) fn(0, m);
    tasks_executed_->AddShard(0, num_morsels);
    return;
  }
  Batch batch;
  batch.fn = &fn;
  batch.outstanding = num_morsels;
  {
    dbg::RankedLockGuard lock(dbg::LockRank::kScheduler, mu_);
    // Incremented before the pushes so a racing pop never reads the
    // gauge below zero.
    queue_depth_->Add(static_cast<int64_t>(num_morsels));
    for (size_t m = 0; m < num_morsels; ++m) {
      deques_[next_deque_].push_back(Item{&batch, m});
      next_deque_ = (next_deque_ + 1) % deques_.size();
    }
  }
  work_cv_.notify_all();
  dbg::RankedUniqueLock lock(dbg::LockRank::kScheduler, mu_);
  done_cv_.wait(lock.lock(), [&] { return batch.outstanding == 0; });
  if (batch.error) std::rethrow_exception(batch.error);
}

}  // namespace qppt::engine
