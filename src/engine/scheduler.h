// Work-stealing morsel scheduler — the engine's execution substrate.
//
// A fixed pool of worker threads executes *morsels*: small, independent
// units of operator work (typically one disjoint KISS-Tree key subrange
// from PartitionKissRange, core/parallel.h, or one slice of a prefix-tree
// pair's branching-level slots from FindPairScanLevel, core/sync_scan.h).
// Each worker owns a deque; a submitted batch is spread round-robin
// across the deques, workers pop their own deque LIFO and steal FIFO
// from others when idle. Morsels from *different* concurrent queries
// interleave freely over the same workers, which is what lets one fixed
// pool serve many admitted queries (morsel-driven parallelism à la
// HyPer, adapted to QPPT's deterministic tree partitions).
//
// Kept deliberately simple (KISS): one pool-wide mutex guards the deques
// — morsels are coarse (thousands of tuples), so the lock is cold — and
// the whole scheduler is a few hundred auditable lines, TSan-clean by
// construction.

#ifndef QPPT_ENGINE_SCHEDULER_H_
#define QPPT_ENGINE_SCHEDULER_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace qppt::obs {
class Counter;
class Gauge;
}  // namespace qppt::obs

namespace qppt::engine {

class WorkerPool {
 public:
  // fn(worker, morsel): `worker` is a stable id in [0, num_workers()) —
  // index per-worker partial states with it; `morsel` is the batch-local
  // morsel index.
  using MorselFn = std::function<void(size_t worker, size_t morsel)>;

  // `threads` worker threads; 0 = no workers, Run() executes inline on
  // the calling thread (worker id 0; num_workers() reports 1).
  explicit WorkerPool(size_t threads);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  size_t num_workers() const { return deques_.empty() ? 1 : deques_.size(); }

  // Morsels per worker in every parallel batch.
  // Work stealing evens out skewed morsels; the split must also be fine
  // enough that a short query's morsels do not queue long behind those
  // of a concurrent long query (on a 4-thread box, 8 per worker raised
  // the htap benchmark's latency geomean by 17%; 32 left it unchanged).
  static constexpr size_t kMorselsPerWorker = 32;
  // The split target of every morsel batch on this pool.
  size_t morsel_target() const { return num_workers() * kMorselsPerWorker; }

  // Executes fn for every morsel index in [0, num_morsels) and blocks
  // until all have finished. Thread-safe: batches submitted concurrently
  // from different query threads interleave over the shared workers. If a
  // morsel throws, the batch's remaining morsels are skipped and the
  // first exception is rethrown here, on the submitting thread. Must not
  // be called from inside a morsel (no nested batches).
  void Run(size_t num_morsels, const MorselFn& fn);

 private:
  struct Batch {
    const MorselFn* fn = nullptr;
    size_t outstanding = 0;        // morsels not yet finished (guarded by mu_)
    bool failed = false;           // skip remaining morsels (guarded by mu_)
    std::exception_ptr error;      // first morsel exception (guarded by mu_)
  };
  struct Item {
    Batch* batch = nullptr;
    size_t index = 0;
  };

  void WorkerLoop(size_t worker);
  // Pops from the worker's own deque (back) or steals from another
  // worker's deque (front). Caller holds mu_. Sets *stolen when the item
  // came from a victim's deque.
  bool PopOrStealLocked(size_t worker, Item* item, bool* stolen);

  std::mutex mu_;
  std::condition_variable work_cv_;   // workers: items available / stop
  std::condition_variable done_cv_;   // submitters: batch finished
  std::vector<std::deque<Item>> deques_;
  std::vector<std::thread> workers_;
  size_t next_deque_ = 0;  // round-robin distribution cursor (guarded by mu_)
  bool stop_ = false;

  // Global-registry metrics, resolved once at construction (pointers are
  // stable for the registry's lifetime).
  obs::Counter* tasks_executed_;   // engine_tasks_executed_total, per worker
  obs::Counter* tasks_stolen_;     // engine_tasks_stolen_total, per worker
  obs::Counter* steal_failures_;   // engine_steal_failures_total
  obs::Counter* worker_busy_ns_;   // engine_worker_busy_ns_total, per worker
  obs::Counter* worker_idle_ns_;   // engine_worker_idle_ns_total, per worker
  obs::Gauge* queue_depth_;        // engine_queue_depth (queued, unstarted)
};

}  // namespace qppt::engine

#endif  // QPPT_ENGINE_SCHEDULER_H_
