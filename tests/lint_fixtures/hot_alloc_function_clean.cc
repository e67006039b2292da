// Clean twin of hot_alloc_function_violation.cc: a template callback, so
// no closure is type-erased. qppt_lint must pass this file even with
// --treat-as-hot.
#include <functional>

namespace qppt {
template <typename Fn>
int RunInline(const Fn& fn) {
  return fn(7);
}
int Use() {
  return RunInline([](int v) { return v + 1; });
}
}  // namespace qppt
