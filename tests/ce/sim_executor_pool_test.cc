#include "ce/sim_executor_pool.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "ce/concurrency_controller.h"
#include "contract/contract.h"
#include "contract/kv.h"
#include "obs/trace.h"
#include "testutil/always_abort_engine.h"
#include "testutil/testutil.h"
#include "workload/smallbank_workload.h"

namespace thunderbolt::ce {
namespace {

class PoolTest : public ::testing::Test {
 protected:
  PoolTest() : registry_(contract::Registry::CreateDefault()) {}

  std::vector<txn::Transaction> MakeBatch(size_t n, uint64_t seed,
                                          double read_ratio = 0.5) {
    return testutil::MakeSmallBankBatch(
        &store_, n, testutil::SmallBankTestConfig(100, seed, read_ratio));
  }

  storage::MemKVStore store_;
  std::shared_ptr<contract::Registry> registry_;
};

TEST_F(PoolTest, EmptyBatch) {
  ConcurrencyController cc(&store_, 0);
  SimExecutorPool pool(4, ExecutionCostModel{});
  auto r = pool.Run(cc, *registry_, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->records.size(), 0u);
  EXPECT_EQ(r->duration, 0u);
}

TEST_F(PoolTest, ZeroExecutorsRejected) {
  ConcurrencyController cc(&store_, 1);
  SimExecutorPool pool(0, ExecutionCostModel{});
  auto batch = MakeBatch(1, 11);
  EXPECT_TRUE(pool.Run(cc, *registry_, batch).status().IsInvalidArgument());
}

TEST_F(PoolTest, AllTransactionsCommit) {
  auto batch = MakeBatch(200, 12);
  ConcurrencyController cc(&store_, 200);
  SimExecutorPool pool(8, ExecutionCostModel{});
  auto r = pool.Run(cc, *registry_, batch);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->order.size(), 200u);
  EXPECT_EQ(r->records.size(), 200u);
  // Every slot appears exactly once in the order.
  std::vector<bool> seen(200, false);
  for (TxnSlot s : r->order) {
    EXPECT_FALSE(seen[s]);
    seen[s] = true;
  }
  EXPECT_GT(r->duration, 0u);
  EXPECT_EQ(r->commit_latency_us.Count(), 200u);
}

TEST_F(PoolTest, MoreExecutorsShortenMakespan) {
  auto batch = MakeBatch(300, 13, /*read_ratio=*/0.9);  // Low conflict.
  SimTime d1, d8;
  {
    storage::MemKVStore store = store_.Clone();
    ConcurrencyController cc(&store, 300);
    SimExecutorPool pool(1, ExecutionCostModel{});
    auto r = pool.Run(cc, *registry_, batch);
    ASSERT_TRUE(r.ok());
    d1 = r->duration;
  }
  {
    storage::MemKVStore store = store_.Clone();
    ConcurrencyController cc(&store, 300);
    SimExecutorPool pool(8, ExecutionCostModel{});
    auto r = pool.Run(cc, *registry_, batch);
    ASSERT_TRUE(r.ok());
    d8 = r->duration;
  }
  // 8 executors should be markedly faster on a low-conflict batch.
  EXPECT_LT(d8 * 3, d1);
}

TEST_F(PoolTest, StartTimeOffsetsClock) {
  auto batch = MakeBatch(50, 14);
  ConcurrencyController cc(&store_, 50);
  SimExecutorPool pool(4, ExecutionCostModel{});
  auto r = pool.Run(cc, *registry_, batch, /*start_time=*/Seconds(5));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->start_time, Seconds(5));
  EXPECT_GT(r->duration, 0u);
  EXPECT_LT(r->duration, Seconds(1));  // Duration excludes the offset.
}

TEST_F(PoolTest, DeterministicAcrossRuns) {
  auto batch = MakeBatch(250, 15);
  SimTime durations[2];
  uint64_t aborts[2];
  for (int i = 0; i < 2; ++i) {
    storage::MemKVStore store = store_.Clone();
    ConcurrencyController cc(&store, 250);
    SimExecutorPool pool(8, ExecutionCostModel{});
    auto r = pool.Run(cc, *registry_, batch);
    ASSERT_TRUE(r.ok());
    durations[i] = r->duration;
    aborts[i] = r->total_aborts;
  }
  EXPECT_EQ(durations[0], durations[1]);
  EXPECT_EQ(aborts[0], aborts[1]);
}

// The pool's per-transaction restart bound must fail a livelocked batch at
// kMaxRestartsPerTxn * n consecutive restarts instead of spinning on
// toward the much larger global kMaxRestartFactor * n backstop.
TEST_F(PoolTest, PerSlotLivelockBoundTripsBeforeGlobalCap) {
  const uint32_t n = 4;
  std::vector<txn::Transaction> batch(n);
  for (uint32_t i = 0; i < n; ++i) {
    batch[i].id = i;
    batch[i].contract = contract::kKvUpdate;
    batch[i].accounts = {"r" + std::to_string(i)};
    batch[i].params = {static_cast<Value>(i)};
  }
  testutil::AlwaysAbortSlotZeroEngine engine(n);
  SimExecutorPool pool(2, ExecutionCostModel{});
  auto r = pool.Run(engine, *registry_, batch);
  ASSERT_EQ(r.status().code(), StatusCode::kInternal)
      << r.status().ToString();
  EXPECT_GT(engine.total_aborts(), kMaxRestartsPerTxn * n);
  EXPECT_LT(engine.total_aborts(), kMaxRestartFactor * n / 2);
}

// One-slot engine whose first Finish aborts, reported through the abort
// callback as every engine reports restarts; the retry commits.
class AbortFirstFinishEngine final : public BatchEngine {
 public:
  void SetAbortCallback(AbortCallback cb) override { cb_ = std::move(cb); }
  uint32_t Begin(TxnSlot) override { return incarnation_; }
  Result<Value> Read(TxnSlot, uint32_t, const Key&) override {
    return Value{0};
  }
  Status Write(TxnSlot, uint32_t, const Key&, Value) override {
    return Status::OK();
  }
  void Emit(TxnSlot, uint32_t, Value) override {}
  Status Finish(TxnSlot slot, uint32_t) override {
    if (incarnation_ == 0) {
      ++incarnation_;
      if (cb_) cb_(slot, obs::AbortReason::kValidationFailure);
      return Status::Aborted("first attempt aborts");
    }
    order_.push_back(slot);
    return Status::OK();
  }
  bool AllCommitted() const override { return !order_.empty(); }
  uint32_t committed_count() const override {
    return static_cast<uint32_t>(order_.size());
  }
  uint64_t total_aborts() const override { return incarnation_; }
  const std::vector<TxnSlot>& SerializationOrder() const override {
    return order_;
  }
  TxnRecord ExtractRecord(TxnSlot) const override { return TxnRecord{}; }
  storage::WriteBatch FinalWrites() const override { return {}; }

 private:
  AbortCallback cb_;
  uint32_t incarnation_ = 0;
  std::vector<TxnSlot> order_;
};

// A restart keeps the transaction's first start, also when that start was
// virtual time 0: its queue wait stays 0 and its lifecycle span still
// begins at the batch start.
TEST_F(PoolTest, RestartKeepsFirstStartTime) {
  std::vector<txn::Transaction> batch(1);
  batch[0].id = 7;
  batch[0].contract = contract::kKvUpdate;
  batch[0].accounts = {"r0"};
  batch[0].params = {1};
  for (SimTime start : {SimTime{0}, SimTime{1000}}) {
    AbortFirstFinishEngine engine;
    obs::RingTracer tracer(64);
    SimExecutorPool pool(1, ExecutionCostModel{});
    pool.SetObs(PoolObsContext{&tracer, nullptr, 0});
    auto r = pool.Run(engine, *registry_, batch, start);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->total_aborts, 1u);
    ASSERT_EQ(r->phases[obs::Phase::kQueueWait].Count(), 1u);
    EXPECT_EQ(r->phases[obs::Phase::kQueueWait].Max(), 0.0)
        << "start_time " << start;
    EXPECT_GT(r->phases[obs::Phase::kRestartBackoff].Max(), 0.0);
    size_t spans = 0;
    for (const obs::TraceEvent& ev : tracer.Snapshot()) {
      if (ev.kind != obs::EventKind::kTxnSpan) continue;
      ++spans;
      EXPECT_EQ(ev.ts_us, start);
      EXPECT_EQ(ev.txn, 7u);
    }
    EXPECT_EQ(spans, 1u);
  }
}

TEST_F(PoolTest, ReportsReExecutions) {
  // Update-only on a tiny hot set forces conflicts.
  auto batch = testutil::MakeSmallBankBatch(
      &store_, 100,
      testutil::SmallBankTestConfig(/*num_accounts=*/4, /*seed=*/16,
                                    /*read_ratio=*/0.0, /*theta=*/0.9));
  ConcurrencyController cc(&store_, 100);
  SimExecutorPool pool(8, ExecutionCostModel{});
  auto r = pool.Run(cc, *registry_, batch);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->total_aborts, 0u);
}

}  // namespace
}  // namespace thunderbolt::ce
