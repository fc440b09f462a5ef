// Tests for the OCC and 2PL-No-Wait baseline engines, including the
// cross-engine property that every engine produces a serializable outcome
// on the same randomized batches.
#include <gtest/gtest.h>

#include "baselines/serial_executor.h"
#include "ce/concurrency_controller.h"
#include "ce/occ_engine.h"
#include "ce/sim_executor_pool.h"
#include "ce/tpl_nowait_engine.h"
#include "contract/contract.h"
#include "testutil/testutil.h"
#include "workload/smallbank_workload.h"

namespace thunderbolt::ce {
namespace {

class OccEngineTest : public ::testing::Test {
 protected:
  OccEngineTest() : engine_(&store_, 2) {
    store_.Put("k", 10);
    engine_.SetAbortCallback(
        [this](TxnSlot s, obs::AbortReason) { aborted_.push_back(s); });
  }
  storage::MemKVStore store_;
  OccEngine engine_;
  std::vector<TxnSlot> aborted_;
};

TEST_F(OccEngineTest, CleanCommit) {
  uint32_t inc = engine_.Begin(0);
  auto v = engine_.Read(0, inc, "k");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 10);
  ASSERT_TRUE(engine_.Write(0, inc, "k", 11).ok());
  ASSERT_TRUE(engine_.Finish(0, inc).ok());
  EXPECT_EQ(engine_.committed_count(), 1u);
  auto batch = engine_.FinalWrites();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.entries()[0].value, 11);
}

TEST_F(OccEngineTest, ValidationFailureOnStaleRead) {
  uint32_t i0 = engine_.Begin(0);
  uint32_t i1 = engine_.Begin(1);
  ASSERT_TRUE(engine_.Read(0, i0, "k").ok());   // Reads version 1.
  ASSERT_TRUE(engine_.Read(1, i1, "k").ok());
  ASSERT_TRUE(engine_.Write(1, i1, "k", 20).ok());
  ASSERT_TRUE(engine_.Finish(1, i1).ok());      // Bumps k's version.
  ASSERT_TRUE(engine_.Write(0, i0, "k", 30).ok());
  EXPECT_TRUE(engine_.Finish(0, i0).IsAborted());  // Stale read.
  EXPECT_EQ(aborted_, (std::vector<TxnSlot>{0}));
  EXPECT_EQ(engine_.total_aborts(), 1u);
  // Re-execution succeeds.
  uint32_t i0b = engine_.Begin(0);
  auto v = engine_.Read(0, i0b, "k");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 20);
  ASSERT_TRUE(engine_.Write(0, i0b, "k", 30).ok());
  ASSERT_TRUE(engine_.Finish(0, i0b).ok());
  EXPECT_TRUE(engine_.AllCommitted());
}

TEST_F(OccEngineTest, ReadOnlyNeverAborts) {
  uint32_t i0 = engine_.Begin(0);
  uint32_t i1 = engine_.Begin(1);
  ASSERT_TRUE(engine_.Read(0, i0, "k").ok());
  ASSERT_TRUE(engine_.Write(1, i1, "other", 1).ok());
  ASSERT_TRUE(engine_.Finish(1, i1).ok());
  EXPECT_TRUE(engine_.Finish(0, i0).ok());  // Disjoint keys: no conflict.
}

class TplEngineTest : public ::testing::Test {
 protected:
  TplEngineTest() : engine_(&store_, 3) {
    store_.Put("k", 10);
    engine_.SetAbortCallback(
        [this](TxnSlot s, obs::AbortReason) { aborted_.push_back(s); });
  }
  storage::MemKVStore store_;
  TplNoWaitEngine engine_;
  std::vector<TxnSlot> aborted_;
};

TEST_F(TplEngineTest, SharedReadersCoexist) {
  uint32_t i0 = engine_.Begin(0);
  uint32_t i1 = engine_.Begin(1);
  EXPECT_TRUE(engine_.Read(0, i0, "k").ok());
  EXPECT_TRUE(engine_.Read(1, i1, "k").ok());
  EXPECT_TRUE(aborted_.empty());
  EXPECT_EQ(engine_.LockedKeyCount(), 1u);
}

TEST_F(TplEngineTest, WriterBlocksReaderNoWait) {
  uint32_t i0 = engine_.Begin(0);
  uint32_t i1 = engine_.Begin(1);
  ASSERT_TRUE(engine_.Write(0, i0, "k", 1).ok());
  EXPECT_TRUE(engine_.Read(1, i1, "k").status().IsAborted());
  EXPECT_EQ(aborted_, (std::vector<TxnSlot>{1}));
}

TEST_F(TplEngineTest, UpgradeConflictAborts) {
  uint32_t i0 = engine_.Begin(0);
  uint32_t i1 = engine_.Begin(1);
  ASSERT_TRUE(engine_.Read(0, i0, "k").ok());
  ASSERT_TRUE(engine_.Read(1, i1, "k").ok());
  // Upgrading with another shared holder fails (no-wait).
  EXPECT_TRUE(engine_.Write(0, i0, "k", 5).IsAborted());
}

TEST_F(TplEngineTest, SelfUpgradeAllowed) {
  uint32_t i0 = engine_.Begin(0);
  ASSERT_TRUE(engine_.Read(0, i0, "k").ok());
  EXPECT_TRUE(engine_.Write(0, i0, "k", 5).ok());  // Sole reader upgrades.
  ASSERT_TRUE(engine_.Finish(0, i0).ok());
  EXPECT_EQ(engine_.LockedKeyCount(), 0u);  // Locks released on commit.
}

TEST_F(TplEngineTest, AbortReleasesLocks) {
  uint32_t i0 = engine_.Begin(0);
  uint32_t i1 = engine_.Begin(1);
  ASSERT_TRUE(engine_.Write(0, i0, "k", 1).ok());
  ASSERT_TRUE(engine_.Read(1, i1, "k").status().IsAborted());
  // Victim's locks are gone; a third transaction can write freely after
  // transaction 0 finishes.
  ASSERT_TRUE(engine_.Finish(0, i0).ok());
  uint32_t i2 = engine_.Begin(2);
  EXPECT_TRUE(engine_.Write(2, i2, "k", 7).ok());
}

// --- Cross-engine serializability property --------------------------------

struct EngineParam {
  enum Kind { kCc, kOcc, kTpl } kind;
  // GoogleTest has no printer for this struct, so it dumps the raw bytes,
  // and CTest discovery puts that dump into each test's name. These four
  // bytes were padding, which made the names depend on whatever the stack
  // held when the cases were registered; filling them explicitly keeps
  // every case under the name it was first registered with.
  char name_tag[4];
  uint64_t seed;
  double theta;
  double read_ratio;
};
static_assert(sizeof(EngineParam) == 32, "test names embed a 32-byte dump");

class EngineEquivalenceTest : public ::testing::TestWithParam<EngineParam> {};

TEST_P(EngineEquivalenceTest, OutcomeIsSerializable) {
  const EngineParam p = GetParam();
  storage::MemKVStore store;
  workload::SmallBankWorkload w = testutil::MakeSmallBank(
      &store, /*num_accounts=*/200, p.seed, p.read_ratio, p.theta);
  storage::MemKVStore serial_store = store.Clone();
  auto batch = w.MakeBatch(300);
  auto registry = contract::Registry::CreateDefault();

  std::unique_ptr<ce::BatchEngine> engine;
  switch (p.kind) {
    case EngineParam::kCc:
      engine = std::make_unique<ce::ConcurrencyController>(&store, 300);
      break;
    case EngineParam::kOcc:
      engine = std::make_unique<OccEngine>(&store, 300);
      break;
    case EngineParam::kTpl:
      engine = std::make_unique<TplNoWaitEngine>(&store, 300);
      break;
  }
  ce::SimExecutorPool pool(8, ce::ExecutionCostModel{});
  auto result = pool.Run(*engine, *registry, batch);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(store.Write(engine->FinalWrites()).ok());

  // Serial replay in the engine's serialization order must reproduce the
  // same emitted results and final state.
  std::vector<txn::Transaction> ordered;
  for (TxnSlot slot : result->order) ordered.push_back(batch[slot]);
  baselines::SerialExecutionResult serial =
      baselines::ExecuteSerial(*registry, ordered, &serial_store, Micros(1));
  for (size_t i = 0; i < result->order.size(); ++i) {
    TxnSlot slot = result->order[i];
    ASSERT_EQ(result->records[slot].emitted, serial.records[i].emitted)
        << "engine " << static_cast<int>(p.kind) << " txn position " << i;
  }
  EXPECT_EQ(store.ContentFingerprint(), serial_store.ContentFingerprint());
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, EngineEquivalenceTest,
    ::testing::Values(
        EngineParam{EngineParam::kCc, {}, 21, 0.85, 0.5},
        EngineParam{EngineParam::kOcc, {}, 22, 0.85, 0.5},
        EngineParam{EngineParam::kTpl, {}, 23, 0.85, 0.5},
        EngineParam{EngineParam::kCc, {'n', 'e', 's', '/'}, 24, 0.95, 0.0},
        EngineParam{EngineParam::kOcc, {}, 25, 0.95, 0.0},
        EngineParam{EngineParam::kTpl, {'n', 'e', 'E', 'q'}, 26, 0.95, 0.0},
        EngineParam{EngineParam::kOcc, {}, 27, 0.5, 0.9},
        EngineParam{EngineParam::kTpl, {'N', 'R', 'T', '_'}, 28, 0.5, 0.9}));

// CE should abort less than OCC, which should abort less than 2PL-No-Wait
// on high-contention update-heavy workloads (the paper's Figure 11 claim).
TEST(AbortRateOrderingTest, CcLowestAborts) {
  storage::MemKVStore base;
  auto batch = testutil::MakeSmallBankBatch(
      &base, 500,
      testutil::SmallBankTestConfig(/*num_accounts=*/1000, /*seed=*/31,
                                    /*read_ratio=*/0.0));
  auto registry = contract::Registry::CreateDefault();

  uint64_t aborts[3];
  for (int kind = 0; kind < 3; ++kind) {
    storage::MemKVStore store = base.Clone();
    std::unique_ptr<ce::BatchEngine> engine;
    if (kind == 0) {
      engine = std::make_unique<ce::ConcurrencyController>(&store, 500);
    } else if (kind == 1) {
      engine = std::make_unique<OccEngine>(&store, 500);
    } else {
      engine = std::make_unique<TplNoWaitEngine>(&store, 500);
    }
    ce::SimExecutorPool pool(16, ce::ExecutionCostModel{});
    auto r = pool.Run(*engine, *registry, batch);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    aborts[kind] = r->total_aborts;
  }
  EXPECT_LE(aborts[0], aborts[1]);  // CC <= OCC.
  EXPECT_LT(aborts[1], aborts[2]);  // OCC < 2PL-No-Wait.
}

}  // namespace
}  // namespace thunderbolt::ce
