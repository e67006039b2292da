// Clean twin of memory_order_violation.cc: every order spelled at its
// atomic call (comments may name std::memory_order). qppt_lint must pass
// this file.
#include <atomic>

namespace qppt {
std::atomic<int> g_counter{0};

int Read() {
  // relaxed: statistics counter; no ordering needed.
  return g_counter.load(std::memory_order_relaxed);
}

int ReadAcquire() { return g_counter.load(std::memory_order_acquire); }

void Store(int v) { g_counter.store(v, std::memory_order_seq_cst); }
}  // namespace qppt
