// Multi-version concurrency control over row tables.
//
// DexterDB — the prototype QPPT is implemented in (§5) — is a row-store
// with MVCC for transactional isolation. Base indexes must respect
// transactional visibility while *intermediate* indexes are query-private
// (§3). This module provides the version-chain substrate: each logical row
// has a newest-first chain of physical versions stamped with [begin, end)
// commit timestamps; a snapshot at read-timestamp T sees the version whose
// stamp interval contains T.
//
// Concurrency model:
//   - Mutators (Insert/Update/Delete/CommitTransaction/AbortTransaction/
//     ReclaimBefore) must be externally serialized — the engine holds a
//     coarse writer lock (§7's no-rebalancing property makes in-place
//     index maintenance cheap enough that one writer suffices for now).
//   - Readers (Read/SnapshotRids/RidVisibleAt) are lock-free and may run
//     concurrently with the single writer: version storage has stable
//     addresses (StableVector / RowTable stable mode) and all stamps are
//     atomics published with release/acquire ordering.
//   - Writers to the *same logical row* detect conflicts via
//     first-updater-wins (write-write conflicts abort), mirroring classic
//     MVCC as cited by the paper [3].
//
// Commit protocol (two-phase, fixing the visibility window where a reader
// could begin with read_ts >= commit_ts yet still see pre-commit state):
//   Timestamp ts = tm.BeginCommit();      // allocate, NOT yet visible
//   table.CommitTransaction(txn, ts);     // stamp this txn's versions
//   tm.FinishCommit(txn, ts);             // publish: new Begin()s see ts

#ifndef QPPT_STORAGE_MVCC_H_
#define QPPT_STORAGE_MVCC_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/row_table.h"
#include "util/prefetch.h"
#include "util/stable_vector.h"
#include "util/status.h"

namespace qppt {

using Timestamp = uint64_t;

constexpr Timestamp kTsInfinity = std::numeric_limits<Timestamp>::max();
constexpr uint64_t kInvalidVersion = std::numeric_limits<uint64_t>::max();

struct Transaction {
  uint64_t id = 0;         // unique transaction identifier
  Timestamp read_ts = 0;   // snapshot timestamp
  bool committed = false;
  bool aborted = false;
};

class TransactionManager {
 public:
  TransactionManager() = default;

  Transaction Begin() {
    Transaction txn;
    // relaxed: id allocation needs uniqueness only, no ordering.
    txn.id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
    txn.read_ts = last_commit_ts_.load(std::memory_order_acquire);
    return txn;
  }

  // Allocates a commit timestamp without publishing it. The caller stamps
  // the transaction's versions (MvccTable::CommitTransaction), then calls
  // FinishCommit to make the timestamp visible to new snapshots.
  Timestamp BeginCommit() {
    return next_commit_ts_.fetch_add(1, std::memory_order_acq_rel);
  }

  // Publishes `commit_ts`. Commits publish in timestamp order (waits for
  // ts-1), so last_commit_ts_ == T guarantees every commit <= T is fully
  // stamped — a reader can never get read_ts >= commit_ts while the
  // versions still carry pre-commit stamps.
  void FinishCommit(Transaction& txn, Timestamp commit_ts) {
    Timestamp expect = commit_ts - 1;
    while (last_commit_ts_.load(std::memory_order_acquire) != expect) {
      // another committer between BeginCommit and FinishCommit; rare
    }
    // pairs-with: mvcc-last-commit
    last_commit_ts_.store(commit_ts, std::memory_order_release);
    txn.committed = true;
  }

  void Abort(Transaction& txn) { txn.aborted = true; }

  Timestamp last_commit_ts() const {
    return last_commit_ts_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<uint64_t> next_txn_id_{1};
  std::atomic<Timestamp> next_commit_ts_{1};  // next ts BeginCommit hands out
  std::atomic<Timestamp> last_commit_ts_{0};  // highest fully-stamped ts
};

// A versioned table. Logical rows are identified by LogicalId; each version
// is a physical row in the backing RowTable. Physical rids and version
// indexes coincide: version i describes physical row i, so visibility of a
// rid surfaced by an index probe is an O(1) check (RidVisibleAt).
class MvccTable {
 public:
  using LogicalId = uint64_t;

  explicit MvccTable(Schema schema, std::string name = "")
      : storage_(std::move(schema), std::move(name),
                 RowTable::Growth::kStable) {}

  const Schema& schema() const { return storage_.schema(); }
  const std::string& name() const { return storage_.name(); }
  const RowTable& storage() const { return storage_; }
  size_t num_logical_rows() const { return heads_.size(); }
  size_t num_versions() const { return versions_.size(); }

  // Inserts a new logical row; becomes visible once `commit_ts` is stamped
  // via CommitTransaction. Returns the logical id.
  LogicalId Insert(const Transaction& txn, std::span<const uint64_t> row);

  // Installs a new version of `id`. Fails with AlreadyExists (write-write
  // conflict) if another in-flight transaction already updated `id`, or
  // NotFound if `id` is deleted in this snapshot (including by this
  // transaction itself) or never committed (aborted insert).
  Status Update(Transaction& txn, LogicalId id,
                std::span<const uint64_t> row);

  // Marks `id` deleted as of this transaction. Same failure contract as
  // Update; deleting an already-deleted row is NotFound.
  Status Delete(Transaction& txn, LogicalId id);

  // Returns the physical rid of the version of `id` visible at the
  // transaction's snapshot, or nullopt if invisible/deleted.
  std::optional<Rid> Read(const Transaction& txn, LogicalId id) const;

  // Stamps all of `txn`'s writes with `commit_ts` and releases the write
  // set. Call between TransactionManager::BeginCommit and FinishCommit.
  // Cost: O(txn's own writes).
  void CommitTransaction(const Transaction& txn, Timestamp commit_ts);

  // Reverts all of `txn`'s writes. Cost: O(txn's own writes).
  void AbortTransaction(const Transaction& txn);

  // True if physical row `rid` is visible at snapshot `ts`: its version is
  // committed with begin_ts <= ts < end_ts. Lock-free; O(1).
  bool RidVisibleAt(Rid rid, Timestamp ts) const {
    const Version& v = versions_[rid];
    Timestamp begin = v.begin_ts.load(std::memory_order_acquire);
    if (begin > ts) return false;  // also covers uncommitted (kTsInfinity)
    return v.end_ts.load(std::memory_order_acquire) > ts;
  }

  // Prefetches the version stamps RidVisibleAt(rid, ...) reads. Only the
  // address is computed (an acquire read of the chunk directory, as in
  // RidVisibleAt), so no stamp is read early. begin_ts and end_ts share
  // one cache line: versions are 48 B and chunk bases 16 B-aligned.
  void PrefetchStamps(Rid rid) const { PrefetchRead(&versions_[rid]); }

  // Invokes fn(Rid) for each new physical row `txn` created (inserts and
  // update-successors). Used to publish pending rows into live indexes
  // before commit stamps them visible. Must run before CommitTransaction
  // (which releases the write set).
  template <typename F>
  void ForEachPendingWrite(const Transaction& txn, F&& fn) const {
    auto it = write_sets_.find(txn.id);
    if (it == write_sets_.end()) return;
    for (const WriteOp& op : it->second) {
      if (op.created != kInvalidVersion) fn(Rid{op.created});
    }
  }

  // Epoch-deferred reclamation: unlinks version-chain tails that no active
  // or future snapshot with read_ts >= horizon can reach (everything older
  // than the newest version committed at or before `horizon`). Unlinked
  // versions stay allocated — rids are stable and a straggling reader may
  // still be traversing them — but chains stop growing without bound.
  // Returns the number of versions unlinked. Writer-serialized.
  size_t ReclaimBefore(Timestamp horizon);

  // Scans all logical rows visible at `read_ts` (committed data only) and
  // returns their physical rids, in logical-id order.
  std::vector<Rid> SnapshotRids(Timestamp read_ts) const;

  // Invokes fn(length) with every logical row's current version-chain
  // length (versions reachable from the head via `older` links; 0 for a
  // row whose insert aborted). Observability hook — the engine's
  // reclamation sweep feeds these into a histogram so chain growth under
  // update-heavy workloads stays visible. Writer-serialized: walks the
  // same links ReclaimBefore unlinks.
  template <typename F>
  void ForEachChainLength(F&& fn) const {
    for (size_t id = 0; id < heads_.size(); ++id) {
      uint64_t v = heads_[id].load(std::memory_order_acquire);
      size_t len = 0;
      while (v != kInvalidVersion) {
        ++len;
        v = versions_[v].older.load(std::memory_order_acquire);
      }
      fn(len);
    }
  }

  // One version as seen by a chain walk — the dbg invariant audits
  // (dbg/invariants.h) consume these.
  struct VersionView {
    LogicalId logical = 0;
    Rid rid = 0;
    Timestamp begin_ts = 0;
    Timestamp end_ts = 0;
    bool newest = false;  // first version of its logical row's chain
  };

  // Invokes fn(VersionView) for every reachable version, newest-first
  // within each logical row's chain (view.newest marks chain starts).
  // Writer-serialized, like ForEachChainLength.
  template <typename F>
  void ForEachChainVersion(F&& fn) const {
    for (size_t id = 0; id < heads_.size(); ++id) {
      bool newest = true;
      for (uint64_t v = heads_[id].load(std::memory_order_acquire);
           v != kInvalidVersion;
           v = versions_[v].older.load(std::memory_order_acquire)) {
        const Version& ver = versions_[v];
        fn(VersionView{id, Rid{v},
                       ver.begin_ts.load(std::memory_order_acquire),
                       ver.end_ts.load(std::memory_order_acquire), newest});
        newest = false;
      }
    }
  }

 private:
  struct Version {
    std::atomic<Timestamp> begin_ts{kTsInfinity};  // kTsInfinity: uncommitted
    std::atomic<Timestamp> end_ts{kTsInfinity};
    uint64_t writer_txn = 0;  // txn that created this version (pre-publish)
    std::atomic<uint64_t> ender_txn{0};  // in-flight txn that set end_ts
    std::atomic<uint64_t> older{kInvalidVersion};  // next-older version idx
    LogicalId logical = 0;
    // No rid field: a version's index in versions_ is its physical rid.
  };
  static_assert(sizeof(Version) == 48);

  // One mutation by a transaction: the version it created (insert/update)
  // and/or the prior head it terminated (update/delete).
  struct WriteOp {
    uint64_t created = kInvalidVersion;
    uint64_t ended = kInvalidVersion;
  };

  RowTable storage_;
  // logical id -> newest version index; kInvalidVersion after an aborted
  // insert. StableVector: readers chase heads while the writer appends.
  StableVector<std::atomic<uint64_t>> heads_;
  StableVector<Version> versions_;
  // txn id -> its write ops, in execution order. Writer-serialized.
  std::unordered_map<uint64_t, std::vector<WriteOp>> write_sets_;
};

}  // namespace qppt

#endif  // QPPT_STORAGE_MVCC_H_
