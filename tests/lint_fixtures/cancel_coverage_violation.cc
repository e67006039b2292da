// Fixture: functions that reach a cancel source but never poll it,
// linted with --treat-as-hot. qppt_lint must flag [cancel-coverage]
// three times: the scan-primitive call and the outer loop of the nested
// pair, and the key-enumerator call of an unpolled operator.

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

struct BaseIndex {
  template <typename Fn>
  void ForEachKey(int predicate, const Fn& fn) const {
    for (int i = 0; i < predicate; ++i) fn(i);
  }
};

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

// An operator enumerating index keys with no poll on its cancel source.
int UnpolledKeyScan(qppt::ExecContext* ctx, const qppt::BaseIndex& index) {
  int sum = ctx != nullptr ? 1 : 0;
  index.ForEachKey(100, [&](int v) { sum += v; });  // flagged
  return sum;
}

}  // namespace fixture
