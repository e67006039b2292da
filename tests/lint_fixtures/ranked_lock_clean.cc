// Clean twin of ranked_lock_violation.cc: a ranked wrapper, a reference
// to a lock declared elsewhere, and a hand-managed guard with its
// reason. qppt_lint must pass this file.
#include <mutex>

namespace fixture {

struct Engine {
  std::mutex mu_;
};

std::mutex GlobalMu;

// Stand-in for dbg::RankedLockGuard (the real wrappers live in
// src/dbg/lock_rank.h, the one file allowed raw std guards).
class RankedLockGuard {
 public:
  explicit RankedLockGuard(std::mutex& mu) : mu_(mu) { mu_.lock(); }
  ~RankedLockGuard() { mu_.unlock(); }

 private:
  std::mutex& mu_;
};

void WaitOn(std::unique_lock<std::mutex>& lock);  // takes no lock itself

void Guards(Engine* e) {
  RankedLockGuard g1(e->mu_);
  // lock-rank: manual — fixture demonstrates the escape hatch; the
  // reason may run over several lines above the guard.
  std::unique_lock<std::mutex> g2(GlobalMu);
  WaitOn(g2);
}

}  // namespace fixture
