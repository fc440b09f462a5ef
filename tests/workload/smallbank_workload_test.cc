#include "workload/smallbank_workload.h"

#include <gtest/gtest.h>

#include "contract/smallbank.h"
#include "testutil/testutil.h"

namespace thunderbolt::workload {
namespace {

TEST(SmallBankWorkloadTest, InitStoreSeedsAllAccounts) {
  storage::MemKVStore store;
  SmallBankWorkload w = testutil::MakeSmallBank(&store, 50, /*seed=*/60);
  EXPECT_EQ(store.size(), 100u);  // checking + savings per account.
  EXPECT_EQ(w.TotalBalance(store),
            50 * (SmallBankWorkload::kInitialChecking +
                  SmallBankWorkload::kInitialSavings));
}

TEST(SmallBankWorkloadTest, ReadRatioRespected) {
  WorkloadOptions wc =
      testutil::WorkloadTestOptions(1000, /*seed=*/61, /*read_ratio=*/0.7);
  SmallBankWorkload w(wc);
  int reads = 0;
  const int kN = 10000;
  for (int i = 0; i < kN; ++i) {
    if (w.Next().contract == contract::kGetBalance) ++reads;
  }
  EXPECT_NEAR(reads, kN * 0.7, kN * 0.03);
}

TEST(SmallBankWorkloadTest, UpdateOnlyWhenPrZero) {
  WorkloadOptions wc;
  wc.read_ratio = 0.0;
  wc.seed = 62;
  SmallBankWorkload w(wc);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(w.Next().contract, contract::kSendPayment);
  }
}

TEST(SmallBankWorkloadTest, TxnIdsAreUnique) {
  WorkloadOptions wc;
  wc.seed = 63;
  SmallBankWorkload w(wc);
  std::set<TxnId> ids;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(ids.insert(w.Next().id).second);
  }
}

TEST(SmallBankWorkloadTest, ShardBatchesStayInShard) {
  WorkloadOptions wc;
  wc.num_records = 1000;
  wc.num_shards = 8;
  wc.cross_shard_ratio = 0.0;
  wc.seed = 64;
  SmallBankWorkload w(wc);
  for (ShardId s = 0; s < 8; ++s) {
    auto batch = w.MakeShardBatch(s, 50);
    for (const auto& tx : batch) {
      auto shards = w.mapper().ShardsOf(tx);
      ASSERT_EQ(shards.size(), 1u);
      EXPECT_EQ(shards[0], s);
    }
  }
}

TEST(SmallBankWorkloadTest, CrossShardRatioRespected) {
  WorkloadOptions wc;
  wc.num_records = 2000;
  wc.num_shards = 8;
  wc.cross_shard_ratio = 0.3;
  wc.seed = 65;
  SmallBankWorkload w(wc);
  int cross = 0;
  const int kN = 5000;
  for (int i = 0; i < kN; ++i) {
    auto tx = w.NextForShard(i % 8);
    if (!w.mapper().IsSingleShard(tx)) ++cross;
  }
  EXPECT_NEAR(cross, kN * 0.3, kN * 0.03);
}

TEST(SmallBankWorkloadTest, CrossShardTxsTouchHomeShard) {
  WorkloadOptions wc;
  wc.num_records = 2000;
  wc.num_shards = 4;
  wc.cross_shard_ratio = 1.0;
  wc.seed = 66;
  SmallBankWorkload w(wc);
  for (int i = 0; i < 200; ++i) {
    ShardId home = i % 4;
    auto tx = w.NextForShard(home);
    auto shards = w.mapper().ShardsOf(tx);
    EXPECT_EQ(shards.size(), 2u);
    EXPECT_TRUE(std::find(shards.begin(), shards.end(), home) !=
                shards.end());
  }
}

TEST(SmallBankWorkloadTest, ZipfSkewShowsInAccountFrequencies) {
  // read_ratio 1.0: GetBalance only, one account per txn.
  WorkloadOptions wc =
      testutil::WorkloadTestOptions(1000, /*seed=*/67, /*read_ratio=*/1.0);
  SmallBankWorkload w(wc);
  std::map<std::string, int> freq;
  for (int i = 0; i < 20000; ++i) ++freq[w.Next().accounts[0]];
  // acct0 (rank 0) is the hottest.
  int max_freq = 0;
  std::string hottest;
  for (auto& [account, count] : freq) {
    if (count > max_freq) {
      max_freq = count;
      hottest = account;
    }
  }
  EXPECT_EQ(hottest, "acct0");
  EXPECT_GT(max_freq, 400);  // > 2% of draws on rank 0.
}

TEST(SmallBankWorkloadTest, DeterministicPerSeed) {
  WorkloadOptions wc;
  wc.seed = 68;
  SmallBankWorkload a(wc), b(wc);
  for (int i = 0; i < 100; ++i) {
    auto ta = a.Next();
    auto tb = b.Next();
    EXPECT_EQ(ta.Digest(), tb.Digest());
  }
}

}  // namespace
}  // namespace thunderbolt::workload
