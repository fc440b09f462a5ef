// Unit tests for the CC dependency graph, covering the paper's worked
// examples: Figure 9 (graph construction), Figure 10 (cycle fallback and
// cascading aborts) and the nondeterministic ordering rules of section 8.
#include "ce/concurrency_controller.h"

#include <gtest/gtest.h>

#include <vector>

#include "storage/kv_store.h"
#include "testutil/testutil.h"

namespace thunderbolt::ce {
namespace {

class CcTest : public ::testing::Test {
 protected:
  // "D" starts at 3, the Table 1 initial value.
  storage::MemKVStore store_ =
      testutil::MakeStore({{"A", 0}, {"B", 0}, {"C", 0}, {"D", 3}});
};

TEST_F(CcTest, SingleTxnReadsRoot) {
  ConcurrencyController cc(&store_, 1);
  uint32_t inc = cc.Begin(0);
  auto v = cc.Read(0, inc, "D");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 3);
  EXPECT_TRUE(cc.Finish(0, inc).ok());
  EXPECT_TRUE(cc.AllCommitted());
  EXPECT_EQ(cc.SerializationOrder(), (std::vector<TxnSlot>{0}));
}

TEST_F(CcTest, ReadYourOwnWrite) {
  ConcurrencyController cc(&store_, 1);
  uint32_t inc = cc.Begin(0);
  ASSERT_TRUE(cc.Write(0, inc, "A", 7).ok());
  auto v = cc.Read(0, inc, "A");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 7);
  EXPECT_TRUE(cc.Finish(0, inc).ok());
}

TEST_F(CcTest, ReadUncommittedValueFromOtherTxn) {
  // Table 1, time 2: T2 reads D's value written by the uncommitted T1.
  ConcurrencyController cc(&store_, 2);
  uint32_t i0 = cc.Begin(0);
  uint32_t i1 = cc.Begin(1);
  ASSERT_TRUE(cc.Write(0, i0, "D", 5).ok());
  auto v = cc.Read(1, i1, "D");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 5);
  EXPECT_TRUE(cc.HasEdge(0, 1));  // Value flow orders T0 before T1.
}

TEST_F(CcTest, ReaderWaitsForSourceCommit) {
  ConcurrencyController cc(&store_, 2);
  uint32_t i0 = cc.Begin(0);
  uint32_t i1 = cc.Begin(1);
  ASSERT_TRUE(cc.Write(0, i0, "D", 5).ok());
  ASSERT_TRUE(cc.Read(1, i1, "D").ok());
  // T1 finishes first but cannot commit until its source T0 commits.
  ASSERT_TRUE(cc.Finish(1, i1).ok());
  EXPECT_EQ(cc.committed_count(), 0u);
  ASSERT_TRUE(cc.Finish(0, i0).ok());
  EXPECT_TRUE(cc.AllCommitted());
  EXPECT_EQ(cc.SerializationOrder(), (std::vector<TxnSlot>{0, 1}));
}

TEST_F(CcTest, RewriteCascadesAbortToReaders) {
  // Table 1 time 5 / Figure 10b: T0 rewrites D after T1 consumed the old
  // value; T1 is cascade-aborted, T0 survives.
  ConcurrencyController cc(&store_, 2);
  bool aborted[2] = {false, false};
  cc.SetAbortCallback([&](TxnSlot s, obs::AbortReason) { aborted[s] = true; });
  uint32_t i0 = cc.Begin(0);
  uint32_t i1 = cc.Begin(1);
  ASSERT_TRUE(cc.Write(0, i0, "D", 4).ok());
  ASSERT_TRUE(cc.Read(1, i1, "D").ok());
  ASSERT_TRUE(cc.Write(0, i0, "D", 5).ok());  // Rewrite.
  EXPECT_TRUE(aborted[1]);
  EXPECT_FALSE(aborted[0]);
  EXPECT_EQ(cc.total_aborts(), 1u);
  // T1's old incarnation is rejected.
  EXPECT_TRUE(cc.Read(1, i1, "D").status().IsAborted());
  // T1 re-executes and reads the new value.
  uint32_t i1b = cc.Begin(1);
  auto v = cc.Read(1, i1b, "D");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 5);
  ASSERT_TRUE(cc.Finish(0, i0).ok());
  ASSERT_TRUE(cc.Finish(1, i1b).ok());
  EXPECT_TRUE(cc.AllCommitted());
}

TEST_F(CcTest, WriteAfterReadOrdersReaderFirst) {
  // Figure 9a: a new writer orders existing readers before itself, so the
  // readers keep their values.
  ConcurrencyController cc(&store_, 2);
  uint32_t i0 = cc.Begin(0);
  uint32_t i1 = cc.Begin(1);
  auto v = cc.Read(0, i0, "A");  // Reads root (0).
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 0);
  ASSERT_TRUE(cc.Write(1, i1, "A", 9).ok());
  EXPECT_TRUE(cc.HasEdge(0, 1));  // Reader before writer.
  ASSERT_TRUE(cc.Finish(0, i0).ok());
  ASSERT_TRUE(cc.Finish(1, i1).ok());
  EXPECT_EQ(cc.SerializationOrder(), (std::vector<TxnSlot>{0, 1}));
}

TEST_F(CcTest, ReadPrefersLatestWriter) {
  // Figure 9b: T3 reads A from the most recent writer; other writers are
  // ordered before the source.
  ConcurrencyController cc(&store_, 3);
  uint32_t i0 = cc.Begin(0);
  uint32_t i1 = cc.Begin(1);
  uint32_t i2 = cc.Begin(2);
  ASSERT_TRUE(cc.Write(0, i0, "A", 1).ok());
  ASSERT_TRUE(cc.Write(1, i1, "A", 2).ok());
  auto v = cc.Read(2, i2, "A");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 2);               // Latest writer's value.
  EXPECT_TRUE(cc.HasEdge(1, 2));  // Source before reader.
  // The older writer must be ordered before the source.
  EXPECT_TRUE(cc.HasEdge(0, 1));
  EXPECT_TRUE(cc.GraphIsAcyclic());
}

TEST_F(CcTest, CycleFallbackReadsAncestor) {
  // Figure 10a: T0 reads B, but B's latest writer T1 already depends on
  // T0; the read falls back to the root and T1 stays alive.
  ConcurrencyController cc(&store_, 2);
  bool aborted[2] = {false, false};
  cc.SetAbortCallback([&](TxnSlot s, obs::AbortReason) { aborted[s] = true; });
  uint32_t i0 = cc.Begin(0);
  uint32_t i1 = cc.Begin(1);
  // Build T0 -> T1 dependency via key A.
  ASSERT_TRUE(cc.Write(0, i0, "A", 1).ok());
  auto va = cc.Read(1, i1, "A");
  ASSERT_TRUE(va.ok());
  // T1 writes B.
  ASSERT_TRUE(cc.Write(1, i1, "B", 3).ok());
  // T0 reads B: reading from T1 would create a cycle; falls back to root.
  auto vb = cc.Read(0, i0, "B");
  ASSERT_TRUE(vb.ok());
  EXPECT_EQ(*vb, 0);  // Root value, not T1's 3.
  EXPECT_FALSE(aborted[0]);
  EXPECT_FALSE(aborted[1]);
  EXPECT_TRUE(cc.GraphIsAcyclic());
  ASSERT_TRUE(cc.Finish(0, i0).ok());
  ASSERT_TRUE(cc.Finish(1, i1).ok());
  EXPECT_TRUE(cc.AllCommitted());
  EXPECT_EQ(cc.SerializationOrder(), (std::vector<TxnSlot>{0, 1}));
}

TEST_F(CcTest, LostUpdateConflictAborts) {
  // Two read-modify-writes of the same key cannot both keep their reads:
  // the second writer cascades an abort.
  ConcurrencyController cc(&store_, 2);
  bool aborted[2] = {false, false};
  cc.SetAbortCallback([&](TxnSlot s, obs::AbortReason) { aborted[s] = true; });
  uint32_t i0 = cc.Begin(0);
  uint32_t i1 = cc.Begin(1);
  ASSERT_TRUE(cc.Read(0, i0, "C").ok());
  ASSERT_TRUE(cc.Read(1, i1, "C").ok());
  ASSERT_TRUE(cc.Write(0, i0, "C", 10).ok());
  Status s = cc.Write(1, i1, "C", 20);
  // Exactly one of the two must have been aborted (which one is an
  // implementation choice; the survivor keeps running).
  EXPECT_TRUE(aborted[0] || aborted[1] || s.IsAborted());
  EXPECT_EQ(cc.total_aborts(), 1u);
  EXPECT_TRUE(cc.GraphIsAcyclic());
}

TEST_F(CcTest, WriteWriteOrderFixedByCommit) {
  // Blind writers of the same key are unordered until commit; commit order
  // becomes the serialization order (Write-Complete).
  ConcurrencyController cc(&store_, 2);
  uint32_t i0 = cc.Begin(0);
  uint32_t i1 = cc.Begin(1);
  ASSERT_TRUE(cc.Write(0, i0, "A", 1).ok());
  ASSERT_TRUE(cc.Write(1, i1, "A", 2).ok());
  EXPECT_FALSE(cc.HasEdge(0, 1));
  EXPECT_FALSE(cc.HasEdge(1, 0));
  ASSERT_TRUE(cc.Finish(1, i1).ok());  // T1 commits first.
  ASSERT_TRUE(cc.Finish(0, i0).ok());
  EXPECT_TRUE(cc.AllCommitted());
  EXPECT_EQ(cc.SerializationOrder(), (std::vector<TxnSlot>{1, 0}));
  // Final value follows the commit order: T0 is last.
  storage::WriteBatch batch = cc.FinalWrites();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.entries()[0].value, 1);
}

TEST_F(CcTest, ExtractRecordHoldsFirstReadLastWrite) {
  ConcurrencyController cc(&store_, 1);
  uint32_t inc = cc.Begin(0);
  ASSERT_TRUE(cc.Read(0, inc, "D").ok());    // First read: 3.
  ASSERT_TRUE(cc.Write(0, inc, "D", 4).ok());
  ASSERT_TRUE(cc.Write(0, inc, "D", 8).ok());  // Last write: 8.
  cc.Emit(0, inc, 123);
  ASSERT_TRUE(cc.Finish(0, inc).ok());
  TxnRecord rec = cc.ExtractRecord(0);
  ASSERT_EQ(rec.rw_set.reads.size(), 1u);
  EXPECT_EQ(rec.rw_set.reads[0].value, 3);
  ASSERT_EQ(rec.rw_set.writes.size(), 1u);
  EXPECT_EQ(rec.rw_set.writes[0].value, 8);
  ASSERT_EQ(rec.emitted.size(), 1u);
  EXPECT_EQ(rec.emitted[0], 123);
  EXPECT_EQ(rec.order, 0);
}

// Block payloads hash each rw-set in ExtractRecord's order, so both sets
// and the final write batch come out ascending by key, whatever order the
// transactions touched their keys in (here: descending).
TEST_F(CcTest, RecordsAndFinalWritesAscendByKey) {
  ConcurrencyController cc(&store_, 2);
  uint32_t i0 = cc.Begin(0);
  uint32_t i1 = cc.Begin(1);
  ASSERT_TRUE(cc.Read(0, i0, "D").ok());
  ASSERT_TRUE(cc.Write(0, i0, "D", 4).ok());
  ASSERT_TRUE(cc.Read(0, i0, "C").ok());
  ASSERT_TRUE(cc.Read(0, i0, "B").ok());
  ASSERT_TRUE(cc.Write(0, i0, "B", 6).ok());
  ASSERT_TRUE(cc.Write(0, i0, "A", 7).ok());
  ASSERT_TRUE(cc.Write(1, i1, "E", 1).ok());
  ASSERT_TRUE(cc.Write(1, i1, "C", 9).ok());  // Orders T0 (read C) first.
  ASSERT_TRUE(cc.Finish(1, i1).ok());
  ASSERT_TRUE(cc.Finish(0, i0).ok());
  ASSERT_TRUE(cc.AllCommitted());

  auto keys = [](const std::vector<txn::Operation>& ops) {
    std::vector<Key> out;
    for (const txn::Operation& op : ops) out.push_back(op.key);
    return out;
  };
  TxnRecord t0 = cc.ExtractRecord(0);
  EXPECT_EQ(keys(t0.rw_set.reads), (std::vector<Key>{"B", "C", "D"}));
  EXPECT_EQ(t0.rw_set.reads[2].value, 3);
  EXPECT_EQ(keys(t0.rw_set.writes), (std::vector<Key>{"A", "B", "D"}));
  EXPECT_EQ(t0.rw_set.writes[0].value, 7);
  TxnRecord t1 = cc.ExtractRecord(1);
  EXPECT_TRUE(t1.rw_set.reads.empty());
  EXPECT_EQ(keys(t1.rw_set.writes), (std::vector<Key>{"C", "E"}));

  storage::WriteBatch batch = cc.FinalWrites();
  std::vector<Key> final_keys;
  for (const auto& e : batch.entries()) final_keys.push_back(e.key);
  EXPECT_EQ(final_keys, (std::vector<Key>{"A", "B", "C", "D", "E"}));
  EXPECT_EQ(batch.entries()[2].value, 9);  // T1 commits after T0.
}

TEST_F(CcTest, StaleIncarnationOpsRejected) {
  ConcurrencyController cc(&store_, 2);
  cc.SetAbortCallback([](TxnSlot, obs::AbortReason) {});
  uint32_t i0 = cc.Begin(0);
  uint32_t i1 = cc.Begin(1);
  ASSERT_TRUE(cc.Write(0, i0, "D", 4).ok());
  ASSERT_TRUE(cc.Read(1, i1, "D").ok());
  ASSERT_TRUE(cc.Write(0, i0, "D", 5).ok());  // Aborts T1.
  // All of T1's stale-incarnation operations fail.
  EXPECT_TRUE(cc.Read(1, i1, "X").status().IsAborted());
  EXPECT_TRUE(cc.Write(1, i1, "X", 1).IsAborted());
  EXPECT_TRUE(cc.Finish(1, i1).IsAborted());
}

}  // namespace
}  // namespace thunderbolt::ce
