// Lock-rank deadlock detection (debug/sanitizer builds).
//
// The engine's mutexes have a documented acquisition order; until this
// header existed it lived in reviewer memory. The table below makes it
// machine-checked: every instrumented acquisition asserts that its rank
// is strictly greater than every rank the thread already holds
// (rank-monotone acquisition). Any two threads that acquire the same
// two mutexes in opposite orders — the classic deadlock shape — trip
// the assert deterministically, on the first inverted acquisition, with
// no need for the unlucky interleaving that would actually deadlock.
//
// Ranks are ordered outermost-first. The table encodes the engine's
// intended nesting; today no two of these mutexes are ever held
// simultaneously (every path is acquire-release-then-next), so the
// checker's job is to keep it that way unless a nesting follows the
// table.
//
// Enforcement is a runtime flag so one binary serves every build:
//   - compiled with QPPT_DBG_INVARIANTS (Debug / sanitizer CMake
//     builds), enforcement defaults ON;
//   - otherwise it defaults OFF and the per-acquisition cost is one
//     relaxed atomic load and branch;
//   - the environment variable QPPT_DBG_INVARIANTS=0/1 overrides the
//     default either way, and tests can call SetInvariantsEnabled.
//
// Violations abort (std::abort) after printing the held-rank stack —
// the same contract as an assert, usable from gtest death tests.

#ifndef QPPT_DBG_LOCK_RANK_H_
#define QPPT_DBG_LOCK_RANK_H_

#include <mutex>

namespace qppt::dbg {

// Outermost (lowest rank) to innermost (highest rank). Gaps leave room
// for new mutexes without renumbering.
enum class LockRank : int {
  // EngineRunner::admit_mu_ — the admission semaphore. Held only while
  // updating the running-query count; never while executing.
  kAdmission = 100,
  // PreparedQuery::State::mu — the per-handle plan cache. Plan lookup
  // and insertion happen under it; execution does not.
  kPlanCache = 200,
  // Database::write_mutex() — the coarse writer lock. Everything a
  // write transaction applies/commits happens under it, including live
  // index upserts, so it must be outside every storage-level mutex.
  kDatabaseWrite = 300,
  // EngineRunner::pins_mu_ — the pinned-snapshot registry. Writers may
  // consult the reclamation horizon, so it ranks inside the write lock.
  kReadPins = 400,
  // EngineRunner::batchers_mu_ — the per-table read-batcher map.
  kReadBatcherMap = 500,
  // EngineRunner::Batcher::mu — one table's shared-read batch state.
  // Looked up under kReadBatcherMap, then locked after release; the
  // rank order allows (map -> batcher) nesting, never the reverse.
  kReadBatcher = 600,
  // WorkerPool::mu_ — the morsel deques. Morsel bodies run without it,
  // but they may take any storage-level mutex, so it sits outside them.
  kScheduler = 700,
  // obs::MetricsRegistry::mu_ — metric registration / snapshot. Hot
  // paths touch only atomics; the mutex is for the cold map.
  kMetrics = 900,
  // fail::Registry::mu — the failpoint table. Failpoints sit inside the
  // deepest choke points (allocator growth paths included), so this is
  // the innermost rank of all.
  kFailpoint = 1100,
};

// Enforcement shares the process-wide dbg flag: see
// dbg::InvariantsEnabled / dbg::SetInvariantsEnabled (dbg/invariants.h)
// for the compile-default + environment-override resolution and the
// test toggle.

// Notes one rank as held by the calling thread, asserting monotone
// acquisition. Balance every Note with exactly one Drop (LIFO); the
// RAII types below do. No-ops (one relaxed load) when enforcement is
// off.
void NoteLockAcquired(LockRank rank);
void NoteLockReleased(LockRank rank);

// RAII rank token: asserts + records the rank for its scope. Pair it
// with a separately-managed lock when the guards below don't fit (e.g.
// std::condition_variable waits keep the token held; the thread is
// blocked, so its held-set cannot be consulted concurrently).
class LockRankToken {
 public:
  explicit LockRankToken(LockRank rank) : rank_(rank) {
    NoteLockAcquired(rank_);
  }
  ~LockRankToken() { NoteLockReleased(rank_); }
  LockRankToken(const LockRankToken&) = delete;
  LockRankToken& operator=(const LockRankToken&) = delete;

 private:
  LockRank rank_;
};

// Drop-in std::lock_guard<std::mutex> replacement that checks the rank
// BEFORE blocking on the mutex — an inverted acquisition aborts instead
// of deadlocking.
class RankedLockGuard {
 public:
  RankedLockGuard(LockRank rank, std::mutex& mu) : token_(rank), lock_(mu) {}

 private:
  LockRankToken token_;  // declared first: rank checked before locking
  std::lock_guard<std::mutex> lock_;
};

// std::unique_lock counterpart for condition-variable waits. The rank
// token spans the full scope, including cv waits (the thread holds no
// other lock while blocked, so the over-approximation is harmless).
class RankedUniqueLock {
 public:
  RankedUniqueLock(LockRank rank, std::mutex& mu) : token_(rank), lock_(mu) {}

  std::unique_lock<std::mutex>& lock() { return lock_; }
  void unlock() { lock_.unlock(); }
  void relock() { lock_.lock(); }

 private:
  LockRankToken token_;
  std::unique_lock<std::mutex> lock_;
};

}  // namespace qppt::dbg

#endif  // QPPT_DBG_LOCK_RANK_H_
