// Fixture: raw std lock guards outside src/dbg/lock_rank.h, where the
// lock-rank checker never sees the acquisition. qppt_lint must flag
// [ranked-lock] three times.
#include <mutex>

namespace fixture {

struct Engine {
  std::mutex mu_;
};

std::mutex GlobalMu;

void RawGuards(Engine* e) {
  std::lock_guard<std::mutex> g1(e->mu_);     // flagged
  std::unique_lock<std::mutex> g2(GlobalMu);  // flagged
  g2.unlock();
}

void RawScopedLock(Engine* e) {
  std::scoped_lock both(e->mu_, GlobalMu);  // flagged
}

}  // namespace fixture
