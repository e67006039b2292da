// Tests for the src/dbg runtime checks: lock-rank deadlock detection
// (including the abort-on-inversion death test) and the MVCC invariant
// audits over live engine state.

#include <gtest/gtest.h>

#include <mutex>
#include <string>

#include "dbg/invariants.h"
#include "dbg/lock_rank.h"
#include "storage/mvcc.h"

namespace qppt {
namespace {

// Turns enforcement on for a scope regardless of build type / env.
class EnforcedScope {
 public:
  EnforcedScope() : prev_(dbg::SetInvariantsEnabled(true)) {}
  ~EnforcedScope() { dbg::SetInvariantsEnabled(prev_); }

 private:
  bool prev_;
};

TEST(LockRankTest, MonotoneAcquisitionPasses) {
  EnforcedScope on;
  std::mutex a, b, c;
  dbg::RankedLockGuard outer(dbg::LockRank::kDatabaseWrite, a);
  dbg::RankedLockGuard middle(dbg::LockRank::kReadPins, b);
  dbg::RankedLockGuard inner(dbg::LockRank::kFailpoint, c);
}

TEST(LockRankTest, ReacquireAfterReleasePasses) {
  EnforcedScope on;
  std::mutex a, b;
  // Sequential (not nested) acquisition of descending ranks is fine.
  { dbg::RankedLockGuard lock(dbg::LockRank::kMetrics, a); }
  { dbg::RankedLockGuard lock(dbg::LockRank::kAdmission, b); }
  { dbg::RankedLockGuard lock(dbg::LockRank::kMetrics, a); }
}

TEST(LockRankTest, TokenPairsWithExternalLock) {
  EnforcedScope on;
  std::mutex mu;
  std::unique_lock<std::mutex> lock(mu, std::defer_lock);
  dbg::LockRankToken token(dbg::LockRank::kReadBatcher);
  lock.lock();
  lock.unlock();
}

TEST(LockRankTest, ToleratesUnnotedRelease) {
  // Enforcement flipped on mid-scope: the release of a never-noted rank
  // must be ignored, not die.
  std::mutex mu;
  bool prev = dbg::SetInvariantsEnabled(false);
  {
    dbg::SetInvariantsEnabled(false);
    auto* token = new dbg::LockRankToken(dbg::LockRank::kScheduler);
    dbg::SetInvariantsEnabled(true);
    delete token;  // release scans and misses; no abort
    dbg::RankedLockGuard lock(dbg::LockRank::kAdmission, mu);
  }
  dbg::SetInvariantsEnabled(prev);
}

// Scheduler (700) then admission (100): inverted order — the rank
// checker must abort before this can ever deadlock.
void AcquireInverted() {
  dbg::SetInvariantsEnabled(true);
  std::mutex a;
  std::mutex b;
  dbg::RankedLockGuard outer(dbg::LockRank::kScheduler, a);
  dbg::RankedLockGuard inner(dbg::LockRank::kAdmission, b);
}

// Equal ranks nested: self-deadlock shape, also fatal.
void AcquireSameRankTwice() {
  dbg::SetInvariantsEnabled(true);
  std::mutex a;
  std::mutex b;
  dbg::RankedLockGuard outer(dbg::LockRank::kMetrics, a);
  dbg::RankedLockGuard inner(dbg::LockRank::kMetrics, b);
}

TEST(LockRankDeathTest, InvertedAcquisitionAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(AcquireInverted(), "lock-rank violation");
}

TEST(LockRankDeathTest, SameRankReacquisitionAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(AcquireSameRankTwice(), "lock-rank violation");
}

class InvariantsTest : public ::testing::Test {
 protected:
  TransactionManager tm_;
  MvccTable table_{Schema({{"v", ValueType::kInt64, nullptr}}), "t"};

  Timestamp Commit(Transaction& txn) {
    Timestamp ts = tm_.BeginCommit();
    table_.CommitTransaction(txn, ts);
    tm_.FinishCommit(txn, ts);
    return ts;
  }
};

TEST_F(InvariantsTest, CleanChainsAuditClean) {
  Transaction t1 = tm_.Begin();
  uint64_t row[1] = {SlotFromInt64(1)};
  auto id = table_.Insert(t1, row);
  Commit(t1);
  for (int64_t v = 2; v <= 5; ++v) {
    Transaction txn = tm_.Begin();
    uint64_t next[1] = {SlotFromInt64(v)};
    ASSERT_TRUE(table_.Update(txn, id, next).ok());
    Commit(txn);
  }
  std::string report;
  EXPECT_EQ(dbg::AuditVersionChains(table_, &report), 0u) << report;
}

TEST_F(InvariantsTest, UncommittedHeadAuditsClean) {
  Transaction t1 = tm_.Begin();
  uint64_t row[1] = {SlotFromInt64(1)};
  auto id = table_.Insert(t1, row);
  Commit(t1);
  Transaction t2 = tm_.Begin();
  uint64_t next[1] = {SlotFromInt64(2)};
  ASSERT_TRUE(table_.Update(t2, id, next).ok());
  // In-flight update: uncommitted version at the head is legal.
  std::string report;
  EXPECT_EQ(dbg::AuditVersionChains(table_, &report), 0u) << report;
  table_.AbortTransaction(t2);
  EXPECT_EQ(dbg::AuditVersionChains(table_, &report), 0u) << report;
}

TEST_F(InvariantsTest, AuditSurvivesReclamation) {
  Transaction t1 = tm_.Begin();
  uint64_t row[1] = {SlotFromInt64(1)};
  auto id = table_.Insert(t1, row);
  Timestamp first = Commit(t1);
  Transaction t2 = tm_.Begin();
  uint64_t next[1] = {SlotFromInt64(2)};
  ASSERT_TRUE(table_.Update(t2, id, next).ok());
  Timestamp second = Commit(t2);
  EXPECT_GT(second, first);
  EXPECT_EQ(table_.ReclaimBefore(second), 1u);
  std::string report;
  EXPECT_EQ(dbg::AuditVersionChains(table_, &report), 0u) << report;
}

TEST(ReclaimHorizonTest, HorizonWithinPinsPasses) {
  EXPECT_EQ(dbg::AuditReclaimHorizon(3, 5), 0u);
  EXPECT_EQ(dbg::AuditReclaimHorizon(5, 5), 0u);
}

TEST(ReclaimHorizonTest, HorizonPastPinsFlagged) {
  std::string report;
  EXPECT_EQ(dbg::AuditReclaimHorizon(7, 5, &report), 1u);
  EXPECT_NE(report.find("horizon"), std::string::npos);
}

}  // namespace
}  // namespace qppt
