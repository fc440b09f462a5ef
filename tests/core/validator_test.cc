// Tests for preplay validation (paper section 4): honest preplay results
// validate and apply; any tampering with read sets, write sets, values or
// order is rejected deterministically.
#include "core/validator.h"

#include <gtest/gtest.h>

#include "ce/concurrency_controller.h"
#include "ce/sim_executor_pool.h"
#include "contract/contract.h"
#include "contract/smallbank.h"
#include "testutil/testutil.h"
#include "workload/smallbank_workload.h"

namespace thunderbolt::core {
namespace {

class ValidatorTest : public ::testing::Test {
 protected:
  ValidatorTest() : registry_(contract::Registry::CreateDefault()) {}

  /// Produces an honest preplayed section via the CE.
  std::vector<PreplayedTxn> Preplay(const std::vector<txn::Transaction>& txs,
                                    const storage::MemKVStore& base) {
    ce::ConcurrencyController cc(&base,
                                 static_cast<uint32_t>(txs.size()));
    ce::SimExecutorPool pool(8, ce::ExecutionCostModel{});
    auto result = pool.Run(cc, *registry_, txs);
    EXPECT_TRUE(result.ok());
    std::vector<PreplayedTxn> out;
    for (ce::TxnSlot slot : result->order) {
      PreplayedTxn p;
      p.tx = txs[slot];
      p.rw_set = result->records[slot].rw_set;
      p.emitted = result->records[slot].emitted;
      out.push_back(std::move(p));
    }
    return out;
  }

  std::shared_ptr<contract::Registry> registry_;
};

TEST_F(ValidatorTest, HonestPreplayValidates) {
  storage::MemKVStore base;
  workload::SmallBankWorkload w =
      testutil::MakeSmallBank(&base, /*num_accounts=*/100, /*seed=*/41);
  auto txs = w.MakeBatch(200);
  auto preplayed = Preplay(txs, base);

  ValidationResult vr = ValidatePreplay(*registry_, preplayed, base);
  EXPECT_TRUE(vr.valid) << vr.failure;
  EXPECT_GT(vr.ops, 0u);

  // Applying the writes yields the same state the CE computed.
  storage::MemKVStore validated = base.Clone();
  ASSERT_TRUE(validated.Write(vr.writes).ok());
  storage::MemKVStore replayed = base.Clone();
  ce::ConcurrencyController cc(&base, static_cast<uint32_t>(txs.size()));
  ce::SimExecutorPool pool(8, ce::ExecutionCostModel{});
  auto r = pool.Run(cc, *registry_, txs);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(replayed.Write(cc.FinalWrites()).ok());
  EXPECT_EQ(validated.ContentFingerprint(), replayed.ContentFingerprint());
}

TEST_F(ValidatorTest, TamperedReadValueRejected) {
  storage::MemKVStore base;
  base.Put("a/checking", 100);
  base.Put("a/savings", 0);
  txn::Transaction tx;
  tx.id = 1;
  tx.contract = contract::kGetBalance;
  tx.accounts = {"a"};
  auto preplayed = Preplay({tx}, base);
  ASSERT_EQ(preplayed.size(), 1u);
  // Corrupt the declared read value.
  preplayed[0].rw_set.reads[0].value += 1;
  ValidationResult vr = ValidatePreplay(*registry_, preplayed, base);
  EXPECT_FALSE(vr.valid);
}

TEST_F(ValidatorTest, TamperedWriteValueRejected) {
  storage::MemKVStore base;
  base.Put("a/checking", 100);
  base.Put("b/checking", 0);
  txn::Transaction tx;
  tx.id = 1;
  tx.contract = contract::kSendPayment;
  tx.accounts = {"a", "b"};
  tx.params = {10};
  auto preplayed = Preplay({tx}, base);
  ASSERT_EQ(preplayed[0].rw_set.writes.size(), 2u);
  preplayed[0].rw_set.writes[0].value += 5;  // Steal funds.
  ValidationResult vr = ValidatePreplay(*registry_, preplayed, base);
  EXPECT_FALSE(vr.valid);
}

TEST_F(ValidatorTest, StaleBaseStateRejected) {
  // Preplay against one state, validate against another (simulates a
  // proposer that ignored a conflicting committed cross-shard write).
  storage::MemKVStore base;
  base.Put("a/checking", 100);
  base.Put("b/checking", 0);
  txn::Transaction tx;
  tx.id = 1;
  tx.contract = contract::kSendPayment;
  tx.accounts = {"a", "b"};
  tx.params = {10};
  auto preplayed = Preplay({tx}, base);

  storage::MemKVStore diverged = base.Clone();
  diverged.Put("a/checking", 50);  // A cross-shard write landed meanwhile.
  ValidationResult vr = ValidatePreplay(*registry_, preplayed, diverged);
  EXPECT_FALSE(vr.valid);
}

TEST_F(ValidatorTest, ReorderedScheduleRejectedWhenConflicting) {
  storage::MemKVStore base;
  base.Put("a/checking", 100);
  base.Put("b/checking", 0);
  base.Put("c/checking", 0);
  // T1: a -> b of 60; T2: b -> c of 40 (depends on T1's deposit).
  txn::Transaction t1, t2;
  t1.id = 1;
  t1.contract = contract::kSendPayment;
  t1.accounts = {"a", "b"};
  t1.params = {60};
  t2.id = 2;
  t2.contract = contract::kSendPayment;
  t2.accounts = {"b", "c"};
  t2.params = {40};
  auto preplayed = Preplay({t1, t2}, base);
  ASSERT_EQ(preplayed.size(), 2u);
  // If the schedule has T1 before T2 with a value dependency, swapping
  // them must fail validation.
  if (preplayed[0].tx.id == 1 && preplayed[1].tx.id == 2 &&
      !preplayed[1].rw_set.reads.empty()) {
    std::swap(preplayed[0], preplayed[1]);
    ValidationResult vr = ValidatePreplay(*registry_, preplayed, base);
    EXPECT_FALSE(vr.valid);
  }
}

TEST_F(ValidatorTest, UndeclaredReadRejected) {
  storage::MemKVStore base;
  base.Put("a/checking", 100);
  base.Put("a/savings", 10);
  txn::Transaction tx;
  tx.id = 1;
  tx.contract = contract::kGetBalance;
  tx.accounts = {"a"};
  auto preplayed = Preplay({tx}, base);
  preplayed[0].rw_set.reads.pop_back();  // Hide one read.
  ValidationResult vr = ValidatePreplay(*registry_, preplayed, base);
  EXPECT_FALSE(vr.valid);
}

TEST(ValidationCriticalPathTest, IndependentTxnsPathOne) {
  std::vector<PreplayedTxn> batch(3);
  for (int i = 0; i < 3; ++i) {
    batch[i].rw_set.writes.push_back(
        {txn::OpType::kWrite, "k" + std::to_string(i), 1});
  }
  EXPECT_EQ(ValidationCriticalPath(batch), 1u);
}

TEST(ValidationCriticalPathTest, ChainedWritersFullDepth) {
  std::vector<PreplayedTxn> batch(4);
  for (int i = 0; i < 4; ++i) {
    batch[i].rw_set.writes.push_back({txn::OpType::kWrite, "hot", 1});
  }
  EXPECT_EQ(ValidationCriticalPath(batch), 4u);
}

TEST(ValidationCriticalPathTest, ReadersChainThroughWriters) {
  std::vector<PreplayedTxn> batch(3);
  batch[0].rw_set.writes.push_back({txn::OpType::kWrite, "k", 1});
  batch[1].rw_set.reads.push_back({txn::OpType::kRead, "k", 1});
  batch[2].rw_set.reads.push_back({txn::OpType::kRead, "k", 1});
  // Readers depend on the writer but not on each other: depth 2.
  EXPECT_EQ(ValidationCriticalPath(batch), 2u);
}

TEST(ValidationCriticalPathTest, EmptyBatch) {
  EXPECT_EQ(ValidationCriticalPath({}), 0u);
}

}  // namespace
}  // namespace thunderbolt::core
