#include "storage/mvcc.h"

#include <cstdint>
#include <vector>

namespace qppt {

MvccTable::LogicalId MvccTable::Insert(const Transaction& txn,
                                       std::span<const uint64_t> row) {
  Rid rid = storage_.AppendRow(row);
  LogicalId id = heads_.size();
  Version& v = versions_.EmplaceBack();
  v.writer_txn = txn.id;
  v.logical = id;
  // versions_ and storage_ grow in lockstep: version index == rid.
  heads_.EmplaceBack(rid);
  write_sets_[txn.id].push_back(WriteOp{rid, kInvalidVersion});
  return id;
}

Status MvccTable::Update(Transaction& txn, LogicalId id,
                         std::span<const uint64_t> row) {
  if (id >= heads_.size()) {
    return Status::NotFound("logical row does not exist");
  }
  uint64_t head = heads_[id].load(std::memory_order_acquire);
  if (head == kInvalidVersion) {
    // The row's insert aborted; nothing to update.
    return Status::NotFound("logical row does not exist");
  }
  Version& current = versions_[head];
  // relaxed: writers are serialized by the database write lock, so a rival
  // stamp cannot race us; no data is read through this flag.
  uint64_t ender = current.ender_txn.load(std::memory_order_relaxed);
  Timestamp begin = current.begin_ts.load(std::memory_order_acquire);
  // First-updater-wins: someone else already terminated this version, or
  // the head itself is another transaction's uncommitted write.
  if (ender != 0 && ender != txn.id) {
    return Status::AlreadyExists("write-write conflict on logical row " +
                                 std::to_string(id));
  }
  if (begin == kTsInfinity && current.writer_txn != txn.id) {
    return Status::AlreadyExists("write-write conflict on logical row " +
                                 std::to_string(id));
  }
  // This transaction already deleted the row: no resurrection by update.
  if (ender == txn.id) {
    return Status::NotFound("logical row deleted by this transaction");
  }
  // The head must be visible to us (no lost updates against newer commits).
  if (begin != kTsInfinity && begin > txn.read_ts) {
    return Status::AlreadyExists(
        "snapshot too old: row updated by a newer committed transaction");
  }
  if (begin != kTsInfinity &&
      current.end_ts.load(std::memory_order_acquire) <= txn.read_ts) {
    return Status::NotFound("logical row deleted in this snapshot");
  }
  Rid rid = storage_.AppendRow(row);
  Version& v = versions_.EmplaceBack();
  v.writer_txn = txn.id;
  v.logical = id;
  // relaxed: both stores are made visible by the head release store below.
  v.older.store(head, std::memory_order_relaxed);
  current.ender_txn.store(txn.id, std::memory_order_relaxed);  // relaxed: ditto
  // Fields above are visible to readers via this release store.
  // pairs-with: mvcc-head
  heads_[id].store(rid, std::memory_order_release);
  write_sets_[txn.id].push_back(WriteOp{rid, head});
  return Status::OK();
}

Status MvccTable::Delete(Transaction& txn, LogicalId id) {
  if (id >= heads_.size()) {
    return Status::NotFound("logical row does not exist");
  }
  uint64_t head = heads_[id].load(std::memory_order_acquire);
  if (head == kInvalidVersion) {
    return Status::NotFound("logical row does not exist");
  }
  Version& current = versions_[head];
  // relaxed: writers are serialized by the database write lock, so a rival
  // stamp cannot race us; no data is read through this flag.
  uint64_t ender = current.ender_txn.load(std::memory_order_relaxed);
  Timestamp begin = current.begin_ts.load(std::memory_order_acquire);
  if (ender != 0 && ender != txn.id) {
    return Status::AlreadyExists("write-write conflict on logical row " +
                                 std::to_string(id));
  }
  if (begin == kTsInfinity && current.writer_txn != txn.id) {
    return Status::AlreadyExists("write-write conflict on logical row " +
                                 std::to_string(id));
  }
  // Double delete within one transaction.
  if (ender == txn.id) {
    return Status::NotFound("logical row deleted by this transaction");
  }
  if (begin != kTsInfinity && begin > txn.read_ts) {
    return Status::AlreadyExists(
        "snapshot too old: row updated by a newer committed transaction");
  }
  // Row already deleted in our snapshot (end_ts stamped at or before it).
  if (begin != kTsInfinity &&
      current.end_ts.load(std::memory_order_acquire) <= txn.read_ts) {
    return Status::NotFound("logical row deleted in this snapshot");
  }
  // relaxed: write-lock flag only; readers confirm deletion through the
  // end_ts stamp CommitTransaction publishes with release.
  current.ender_txn.store(txn.id, std::memory_order_relaxed);
  write_sets_[txn.id].push_back(WriteOp{kInvalidVersion, head});
  return Status::OK();
}

std::optional<Rid> MvccTable::Read(const Transaction& txn,
                                   LogicalId id) const {
  if (id >= heads_.size()) return std::nullopt;
  uint64_t idx = heads_[id].load(std::memory_order_acquire);
  while (idx != kInvalidVersion) {
    const Version& v = versions_[idx];
    Timestamp begin = v.begin_ts.load(std::memory_order_acquire);
    if (begin == kTsInfinity) {
      // Own uncommitted writes are visible to the writing transaction —
      // unless it deleted its own version again.
      if (v.writer_txn == txn.id) {
        // relaxed: reading back this transaction's own store (same thread).
        if (v.ender_txn.load(std::memory_order_relaxed) == txn.id) {
          return std::nullopt;
        }
        return Rid{idx};
      }
      idx = v.older.load(std::memory_order_acquire);
      continue;
    }
    if (begin <= txn.read_ts) {
      // Committed at or before our snapshot; check termination.
      Timestamp end = v.end_ts.load(std::memory_order_acquire);
      // relaxed: only compared against our own txn id; foreign deletes are
      // observed through the end_ts acquire load above.
      uint64_t ender = v.ender_txn.load(std::memory_order_relaxed);
      bool ended_for_us =
          (end <= txn.read_ts) ||
          (ender != 0 && ender == txn.id && end == kTsInfinity);
      if (ended_for_us) return std::nullopt;  // deleted/overwritten
      return Rid{idx};
    }
    idx = v.older.load(std::memory_order_acquire);
  }
  return std::nullopt;
}

void MvccTable::CommitTransaction(const Transaction& txn,
                                  Timestamp commit_ts) {
  auto it = write_sets_.find(txn.id);
  if (it == write_sets_.end()) return;
  for (const WriteOp& op : it->second) {
    if (op.ended != kInvalidVersion) {
      Version& old = versions_[op.ended];
      // pairs-with: mvcc-end-ts
      old.end_ts.store(commit_ts, std::memory_order_release);
      // pairs-with: mvcc-ender-clear
      old.ender_txn.store(0, std::memory_order_release);
    }
    if (op.created != kInvalidVersion) {
      // pairs-with: mvcc-begin-ts
      versions_[op.created].begin_ts.store(commit_ts,
                                           std::memory_order_release);
    }
  }
  write_sets_.erase(it);
}

void MvccTable::AbortTransaction(const Transaction& txn) {
  auto it = write_sets_.find(txn.id);
  if (it == write_sets_.end()) return;
  // Reverse order: with several updates to one row in the same txn, each
  // step restores the head this op displaced.
  for (auto op = it->second.rbegin(); op != it->second.rend(); ++op) {
    if (op->created != kInvalidVersion) {
      Version& v = versions_[op->created];
      // First-updater-wins guarantees no other txn stacked on top of our
      // uncommitted version, so the head is still ours.
      // relaxed inner load: reading back our own displaced-head store.
      // pairs-with: mvcc-head
      heads_[v.logical].store(v.older.load(std::memory_order_relaxed),
                              std::memory_order_release);
    }
    if (op->ended != kInvalidVersion) {
      // pairs-with: mvcc-ender-clear
      versions_[op->ended].ender_txn.store(0, std::memory_order_release);
    }
  }
  write_sets_.erase(it);
}

size_t MvccTable::ReclaimBefore(Timestamp horizon) {
  size_t reclaimed = 0;
  size_t n = heads_.size();
  for (LogicalId id = 0; id < n; ++id) {
    uint64_t idx = heads_[id].load(std::memory_order_acquire);
    // Newest version committed at or before the horizon: every snapshot
    // with read_ts >= horizon resolves to it or something newer.
    while (idx != kInvalidVersion) {
      const Version& v = versions_[idx];
      Timestamp begin = v.begin_ts.load(std::memory_order_acquire);
      if (begin != kTsInfinity && begin <= horizon) break;
      idx = v.older.load(std::memory_order_acquire);
    }
    if (idx == kInvalidVersion) continue;
    Version& keep = versions_[idx];
    // relaxed: reclamation runs under the database write lock, and older
    // links below the horizon are no longer written by anyone.
    uint64_t dead = keep.older.load(std::memory_order_relaxed);
    if (dead == kInvalidVersion) continue;
    // pairs-with: mvcc-older-unlink
    keep.older.store(kInvalidVersion, std::memory_order_release);
    while (dead != kInvalidVersion) {
      // relaxed: the unlink above made this sub-chain private to the sweep.
      dead = versions_[dead].older.load(std::memory_order_relaxed);
      ++reclaimed;
    }
  }
  return reclaimed;
}

std::vector<Rid> MvccTable::SnapshotRids(Timestamp read_ts) const {
  std::vector<Rid> rids;
  size_t n = heads_.size();
  rids.reserve(n);
  Transaction snap;
  snap.id = 0;  // matches no writer
  snap.read_ts = read_ts;
  for (LogicalId id = 0; id < n; ++id) {
    auto rid = Read(snap, id);
    if (rid.has_value()) rids.push_back(*rid);
  }
  return rids;
}

}  // namespace qppt
