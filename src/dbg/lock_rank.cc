#include "dbg/lock_rank.h"

#include <cstdio>
#include <cstdlib>

#include "dbg/invariants.h"

namespace qppt::dbg {

namespace {

constexpr int kMaxHeld = 16;

// Per-thread stack of held ranks. A fixed array: the engine never nests
// anywhere near kMaxHeld mutexes, and a fixed POD thread_local has no
// destructor-ordering hazards during thread teardown.
struct HeldStack {
  int depth = 0;
  LockRank ranks[kMaxHeld];
};
thread_local HeldStack t_held;

const char* RankName(LockRank rank) {
  switch (rank) {
    case LockRank::kAdmission: return "admission";
    case LockRank::kPlanCache: return "plan-cache";
    case LockRank::kDatabaseWrite: return "database-write";
    case LockRank::kReadPins: return "read-pins";
    case LockRank::kReadBatcherMap: return "read-batcher-map";
    case LockRank::kReadBatcher: return "read-batcher";
    case LockRank::kScheduler: return "scheduler";
    case LockRank::kMetrics: return "metrics";
    case LockRank::kFailpoint: return "failpoint";
  }
  return "?";
}

[[noreturn]] void Die(const HeldStack& held, LockRank rank,
                      const char* what) {
  std::fprintf(stderr,
               "qppt lock-rank violation: %s %s(%d) while holding [",
               what, RankName(rank), static_cast<int>(rank));
  for (int i = 0; i < held.depth; ++i) {
    std::fprintf(stderr, "%s%s(%d)", i > 0 ? " " : "",
                 RankName(held.ranks[i]), static_cast<int>(held.ranks[i]));
  }
  std::fprintf(stderr, "]\n");
  std::abort();
}

}  // namespace

void NoteLockAcquired(LockRank rank) {
  if (!InvariantsEnabled()) return;
  HeldStack& held = t_held;
  if (held.depth > 0 && held.ranks[held.depth - 1] >= rank) {
    Die(held, rank, "acquiring");
  }
  if (held.depth >= kMaxHeld) Die(held, rank, "overflow acquiring");
  held.ranks[held.depth++] = rank;
}

void NoteLockReleased(LockRank rank) {
  if (!InvariantsEnabled()) return;
  HeldStack& held = t_held;
  // Enforcement may have been switched on or off mid-scope (tests):
  // tolerate releasing a rank that was never noted by searching instead
  // of demanding strict LIFO, and ignoring a miss.
  for (int i = held.depth; i-- > 0;) {
    if (held.ranks[i] != rank) continue;
    for (int j = i + 1; j < held.depth; ++j) held.ranks[j - 1] = held.ranks[j];
    --held.depth;
    return;
  }
}

}  // namespace qppt::dbg
