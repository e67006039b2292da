// Fixture: memory orders held in a named constant, a parameter and an
// alias, where relaxed-justify and release-pair cannot read them.
// qppt_lint must flag [memory-order-literal] three times.
#include <atomic>

namespace qppt {
std::atomic<int> g_counter{0};

int ReadAliased() {
  // relaxed: statistics counter; no ordering needed.
  constexpr auto kOrder = std::memory_order_relaxed;  // flagged
  return g_counter.load(kOrder);
}

void StoreWith(int v, std::memory_order order) {  // flagged
  g_counter.store(v, order);
}

using Order = std::memory_order;  // flagged
}  // namespace qppt
