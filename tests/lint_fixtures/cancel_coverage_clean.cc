// Clean twin of cancel_coverage_violation.cc, linted with --treat-as-hot:
// a polling function, a morsel-driven one, a helper with no cancel
// source in scope, and the cancel-exempt escape. qppt_lint must pass
// this file.

namespace qppt {

class CancelToken {
 public:
  int Check() const { return 0; }
};

class CancelTicker {
 public:
  explicit CancelTicker(const CancelToken* t) : token_(t) {}
  void Tick() {}

 private:
  const CancelToken* token_;
};

struct ExecContext {
  const CancelToken* cancel() const { return &token_; }
  CancelToken token_;
};

struct MorselSite {
  const CancelToken* cancel;
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

// The driver polls once per morsel.
template <typename Fn>
void RunMorsels(const MorselSite& site, int count, const Fn& fn) {
  for (int m = 0; m < count; ++m) {
    if (site.cancel->Check() != 0) return;
    fn(m);
  }
}

}  // namespace qppt

namespace fixture {

// Polls once per emitted tuple — the serial-operator pattern.
int PolledScan(qppt::ExecContext* ctx) {
  qppt::CancelTicker ticker(ctx->cancel());
  int sum = 0;
  qppt::SynchronousScan([&](int v) {
    ticker.Tick();
    sum += v;
  });
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) sum += i * j;
  }
  return sum;
}

// Enumerates index keys inline, ticking per value — the inline value
// driver's pattern.
int PolledKeyScan(qppt::ExecContext* ctx, const qppt::BaseIndex& index) {
  qppt::CancelTicker ticker(ctx->cancel());
  int sum = 0;
  index.ForEachKey(100, [&](int v) {
    ticker.Tick();
    sum += v;
  });
  return sum;
}

// Hands its MorselSite to the driver, which polls per morsel.
int DrivenScan(qppt::ExecContext* ctx) {
  qppt::MorselSite site{ctx->cancel()};
  int sum = 0;
  qppt::RunMorsels(site, 4, [&](int m) {
    for (int i = 0; i < 8; ++i) {
      for (int j = 0; j < 8; ++j) sum += m * i * j;
    }
  });
  return sum;
}

// No cancel source reachable from here: cancellation is the caller's
// job (the kiss_tree.cc shape), so nothing is flagged.
int PureHelper() {
  int sum = 0;
  qppt::SynchronousScan([&](int v) { sum += v; });
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) sum += i * j;
  }
  return sum;
}

// Deliberately exempt: constant-bounded work.
int ExemptScan(qppt::ExecContext* ctx) {
  int sum = ctx != nullptr ? 1 : 0;
  // cancel-exempt: bounded 3x3 constant walk, finishes in nanoseconds.
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) sum += i * j;
  }
  return sum;
}

}  // namespace fixture
