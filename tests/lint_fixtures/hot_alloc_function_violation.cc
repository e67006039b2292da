// Fixture: std::function in a hot-path directory, linted with
// --treat-as-hot. qppt_lint must flag [hot-path-alloc] twice.
#include <functional>

namespace qppt {
int RunErased(const std::function<int(int)>& fn) { return fn(7); }  // flagged
struct Driver {
  std::function<void(int)> on_row;  // flagged
};
}  // namespace qppt
