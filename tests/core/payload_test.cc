#include "core/payload.h"

#include <gtest/gtest.h>

#include "core/pending_cross_index.h"

namespace thunderbolt::core {
namespace {

ThunderboltPayload MakePayload() {
  ThunderboltPayload p;
  p.kind = PayloadKind::kNormal;
  p.shard = 3;
  PreplayedTxn t;
  t.tx.id = 7;
  t.tx.contract = "smallbank.send_payment";
  t.tx.accounts = {"a", "b"};
  t.tx.params = {5};
  t.rw_set.reads.push_back({txn::OpType::kRead, "a/checking", 100});
  t.rw_set.writes.push_back({txn::OpType::kWrite, "a/checking", 95});
  t.emitted = {1};
  p.preplayed.push_back(t);
  txn::Transaction cross;
  cross.id = 8;
  cross.contract = "smallbank.send_payment";
  cross.accounts = {"c", "d"};
  cross.params = {2};
  p.cross_shard.push_back(cross);
  return p;
}

TEST(PayloadTest, DigestIsDeterministic) {
  EXPECT_EQ(MakePayload().ContentDigest(), MakePayload().ContentDigest());
}

TEST(PayloadTest, DigestCoversKind) {
  ThunderboltPayload a = MakePayload();
  ThunderboltPayload b = MakePayload();
  b.kind = PayloadKind::kSkip;
  EXPECT_NE(a.ContentDigest(), b.ContentDigest());
}

TEST(PayloadTest, DigestCoversShard) {
  ThunderboltPayload a = MakePayload();
  ThunderboltPayload b = MakePayload();
  b.shard = 4;
  EXPECT_NE(a.ContentDigest(), b.ContentDigest());
}

TEST(PayloadTest, DigestCoversDeclaredReads) {
  ThunderboltPayload a = MakePayload();
  ThunderboltPayload b = MakePayload();
  b.preplayed[0].rw_set.reads[0].value += 1;  // Tampered read value.
  EXPECT_NE(a.ContentDigest(), b.ContentDigest());
}

TEST(PayloadTest, DigestCoversDeclaredWrites) {
  ThunderboltPayload a = MakePayload();
  ThunderboltPayload b = MakePayload();
  b.preplayed[0].rw_set.writes[0].value += 1;
  EXPECT_NE(a.ContentDigest(), b.ContentDigest());
}

TEST(PayloadTest, DigestCoversEmittedResults) {
  ThunderboltPayload a = MakePayload();
  ThunderboltPayload b = MakePayload();
  b.preplayed[0].emitted[0] = 0;
  EXPECT_NE(a.ContentDigest(), b.ContentDigest());
}

TEST(PayloadTest, DigestCoversCrossSection) {
  ThunderboltPayload a = MakePayload();
  ThunderboltPayload b = MakePayload();
  b.cross_shard[0].params[0] += 1;
  EXPECT_NE(a.ContentDigest(), b.ContentDigest());
}

TEST(PayloadTest, DigestCoversScheduleOrder) {
  ThunderboltPayload a = MakePayload();
  PreplayedTxn second = a.preplayed[0];
  second.tx.id = 9;
  a.preplayed.push_back(second);
  ThunderboltPayload b = a;
  std::swap(b.preplayed[0], b.preplayed[1]);
  // Copies share no digest cache; order matters.
  EXPECT_NE(a.ContentDigest(), b.ContentDigest());
}

TEST(PayloadTest, SizeGrowsWithContent) {
  ThunderboltPayload empty;
  ThunderboltPayload loaded = MakePayload();
  EXPECT_GT(loaded.SizeBytes(), empty.SizeBytes());
  ThunderboltPayload bigger = MakePayload();
  for (int i = 0; i < 100; ++i) {
    bigger.cross_shard.push_back(bigger.cross_shard[0]);
  }
  EXPECT_GT(bigger.SizeBytes(), loaded.SizeBytes() + 100 * 100);
}

TEST(PayloadTest, CopiesRecomputeTheCachedSize) {
  ThunderboltPayload a = MakePayload();
  const uint64_t size = a.SizeBytes();
  ThunderboltPayload b = a;
  b.cross_shard.push_back(b.cross_shard[0]);
  EXPECT_GT(b.SizeBytes(), size);
  ThunderboltPayload c;
  c.SizeBytes();
  c = b;  // Assignment drops the cache too.
  EXPECT_EQ(c.SizeBytes(), b.SizeBytes());
}

TEST(PayloadTest, CrossAccountIdsFlattenTheCrossSection) {
  AccountIdTable table;
  ThunderboltPayload p = MakePayload();
  txn::Transaction second = p.cross_shard[0];
  second.accounts = {"d", "e", "c"};
  p.cross_shard.push_back(second);
  const std::vector<uint32_t>& ids = p.CrossAccountIds(&table);
  EXPECT_EQ(ids, (std::vector<uint32_t>{0, 1, 1, 2, 0}));  // c d | d e c
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.Find("e"), 2u);
  EXPECT_EQ(table.Find("a"), AccountIdTable::kNone);  // Preplayed only.
}

TEST(PayloadTest, MutatedCopyRecomputesCrossAccountIds) {
  AccountIdTable table;
  ThunderboltPayload a = MakePayload();
  EXPECT_EQ(a.CrossAccountIds(&table), (std::vector<uint32_t>{0, 1}));
  ThunderboltPayload b = a;
  b.cross_shard[0].accounts = {"d", "x"};
  EXPECT_EQ(b.CrossAccountIds(&table), (std::vector<uint32_t>{1, 2}));
  ThunderboltPayload c;
  c.CrossAccountIds(&table);
  c = b;  // Assignment drops the cache too.
  c.cross_shard[0].accounts = {"y"};
  EXPECT_EQ(c.CrossAccountIds(&table), std::vector<uint32_t>{3});
  EXPECT_EQ(a.CrossAccountIds(&table), (std::vector<uint32_t>{0, 1}));
}

}  // namespace
}  // namespace thunderbolt::core
