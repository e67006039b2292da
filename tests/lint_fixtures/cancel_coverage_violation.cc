// Fixture: a function that reaches a cancel source but never polls it,
// linted with --treat-as-hot. qppt_lint must flag [cancel-coverage]
// twice: the scan-primitive call and the outer loop of the nested pair.

namespace qppt {

class CancelToken {
 public:
  int Check() const { return 0; }
};

struct ExecContext {
  const CancelToken* cancel() const { return &token_; }
  CancelToken token_;
};

template <typename Fn>
void SynchronousScan(const Fn& fn) {
  for (int i = 0; i < 100; ++i) fn(i);
}

}  // namespace qppt

namespace fixture {

int UnpolledScan(qppt::ExecContext* ctx) {
  int sum = ctx != nullptr ? 1 : 0;
  qppt::SynchronousScan([&](int v) { sum += v; });  // flagged
  for (int i = 0; i < 8; ++i) {                     // flagged
    for (int j = 0; j < 8; ++j) sum += i * j;
  }
  return sum;
}

}  // namespace fixture
