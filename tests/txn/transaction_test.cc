#include "txn/transaction.h"

#include <gtest/gtest.h>

namespace thunderbolt::txn {
namespace {

Transaction MakeTx(std::vector<std::string> accounts) {
  Transaction tx;
  tx.id = 1;
  tx.contract = "smallbank.send_payment";
  tx.accounts = std::move(accounts);
  tx.params = {5};
  return tx;
}

TEST(ShardMapperTest, KeysOfOneAccountColocate) {
  ShardMapper mapper(16);
  for (int i = 0; i < 100; ++i) {
    std::string account = "acct" + std::to_string(i);
    ShardId s = mapper.ShardOfAccount(account);
    EXPECT_EQ(mapper.ShardOfKey(CheckingKey(account)), s);
    EXPECT_EQ(mapper.ShardOfKey(SavingsKey(account)), s);
    EXPECT_LT(s, 16u);
  }
}

TEST(ShardMapperTest, SingleVsCrossShard) {
  ShardMapper mapper(8);
  // Find two accounts in the same shard and two in different shards.
  std::string base = "acct0";
  ShardId s0 = mapper.ShardOfAccount(base);
  std::string same, diff;
  for (int i = 1; i < 1000 && (same.empty() || diff.empty()); ++i) {
    std::string a = "acct" + std::to_string(i);
    if (mapper.ShardOfAccount(a) == s0 && same.empty()) same = a;
    if (mapper.ShardOfAccount(a) != s0 && diff.empty()) diff = a;
  }
  ASSERT_FALSE(same.empty());
  ASSERT_FALSE(diff.empty());
  EXPECT_TRUE(mapper.IsSingleShard(MakeTx({base, same})));
  EXPECT_FALSE(mapper.IsSingleShard(MakeTx({base, diff})));
  EXPECT_EQ(mapper.ShardsOf(MakeTx({base, diff})).size(), 2u);
}

TEST(ShardMapperTest, IsSingleShardAgreesWithShardsOf) {
  ShardMapper mapper(8);
  // Transactions of every account-list shape the workloads emit, plus a
  // wide one.
  std::vector<std::vector<std::string>> shapes = {
      {},
      {"acct1"},
      {"acct1", "acct1"},
      {"acct1", "acct2"},
      {"w1", "w1.d2", "w1.d2.c3"},
  };
  std::vector<std::string> wide;
  for (int i = 0; i < 20; ++i) wide.push_back("acct" + std::to_string(i));
  shapes.push_back(wide);
  for (const auto& accounts : shapes) {
    Transaction tx = MakeTx(accounts);
    EXPECT_EQ(mapper.IsSingleShard(tx), mapper.ShardsOf(tx).size() <= 1);
  }
}

TEST(ShardMapperTest, DelegatesToInstalledPolicy) {
  // A directory policy pinning two accounts to opposite shards must drive
  // the mapper's classification, overriding what the hash fallback says.
  auto policy = std::make_shared<placement::DirectoryPlacement>(4);
  policy->Assign("acctA", 0);
  policy->Assign("acctB", 3);
  ShardMapper mapper{
      std::static_pointer_cast<const placement::PlacementPolicy>(policy)};
  EXPECT_EQ(mapper.num_shards(), 4u);
  EXPECT_EQ(mapper.ShardOfAccount("acctA"), 0u);
  EXPECT_EQ(mapper.ShardOfKey("acctB/checking"), 3u);
  EXPECT_FALSE(mapper.IsSingleShard(MakeTx({"acctA", "acctB"})));
  EXPECT_EQ(mapper.ShardsOf(MakeTx({"acctA", "acctB"})),
            (std::vector<ShardId>{0, 3}));
  // Mutating the shared policy is visible through the mapper (the hot-key
  // migration contract).
  policy->Assign("acctB", 0);
  EXPECT_TRUE(mapper.IsSingleShard(MakeTx({"acctA", "acctB"})));
}

TEST(ShardMapperTest, ShardsAreReasonablyBalanced) {
  ShardMapper mapper(4);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 4000; ++i) {
    ++counts[mapper.ShardOfAccount("acct" + std::to_string(i))];
  }
  for (int c : counts) {
    EXPECT_GT(c, 800);
    EXPECT_LT(c, 1200);
  }
}

TEST(TransactionTest, DigestSensitivity) {
  Transaction a = MakeTx({"x", "y"});
  Transaction b = a;
  EXPECT_EQ(a.Digest(), b.Digest());
  b.params[0] = 6;
  EXPECT_NE(a.Digest(), b.Digest());
  b = a;
  b.id = 2;
  EXPECT_NE(a.Digest(), b.Digest());
  b = a;
  b.accounts[1] = "z";
  EXPECT_NE(a.Digest(), b.Digest());
}

TEST(ReadWriteSetTest, ConflictDetection) {
  ReadWriteSet a, b;
  a.reads.push_back({OpType::kRead, "k1", 0});
  b.writes.push_back({OpType::kWrite, "k1", 5});
  EXPECT_TRUE(a.ConflictsWith(b));
  EXPECT_TRUE(b.ConflictsWith(a));

  ReadWriteSet c, d;
  c.reads.push_back({OpType::kRead, "k1", 0});
  d.reads.push_back({OpType::kRead, "k1", 0});
  EXPECT_FALSE(c.ConflictsWith(d));  // Read-read is no conflict.

  ReadWriteSet e, f;
  e.writes.push_back({OpType::kWrite, "k2", 1});
  f.writes.push_back({OpType::kWrite, "k2", 2});
  EXPECT_TRUE(e.ConflictsWith(f));  // Write-write conflicts.

  ReadWriteSet g, h;
  g.writes.push_back({OpType::kWrite, "k3", 1});
  h.reads.push_back({OpType::kRead, "k4", 0});
  EXPECT_FALSE(g.ConflictsWith(h));  // Disjoint keys.
}

TEST(ReadWriteSetTest, WrittenKeysDeduplicated) {
  ReadWriteSet s;
  s.writes.push_back({OpType::kWrite, "b", 1});
  s.writes.push_back({OpType::kWrite, "a", 2});
  s.writes.push_back({OpType::kWrite, "b", 3});
  EXPECT_EQ(s.WrittenKeys(), (std::vector<storage::Key>{"a", "b"}));
}

}  // namespace
}  // namespace thunderbolt::txn
