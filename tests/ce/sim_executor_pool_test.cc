#include "ce/sim_executor_pool.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "ce/concurrency_controller.h"
#include "ce/engine_registry.h"
#include "contract/contract.h"
#include "contract/kv.h"
#include "obs/trace.h"
#include "testutil/always_abort_engine.h"
#include "testutil/contract_runs.h"
#include "testutil/testutil.h"
#include "workload/smallbank_workload.h"
#include "workload/workload.h"

namespace thunderbolt::ce {
namespace {

class PoolTest : public ::testing::Test {
 protected:
  PoolTest() : registry_(contract::Registry::CreateDefault()) {}

  std::vector<txn::Transaction> MakeBatch(size_t n, uint64_t seed,
                                          double read_ratio = 0.5) {
    return testutil::MakeSmallBankBatch(
        &store_, n, testutil::WorkloadTestOptions(100, seed, read_ratio));
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
    storage::MemKVStore store = store_;
    ConcurrencyController cc(&store, 300);
    SimExecutorPool pool(1, ExecutionCostModel{});
    auto r = pool.Run(cc, *registry_, batch);
    ASSERT_TRUE(r.ok());
    d1 = r->duration;
  }
  {
    storage::MemKVStore store = store_;
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
    storage::MemKVStore store = store_;
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
      testutil::WorkloadTestOptions(/*num_records=*/4, /*seed=*/16,
                                    /*read_ratio=*/0.0, /*theta=*/0.9));
  ConcurrencyController cc(&store_, 100);
  SimExecutorPool pool(8, ExecutionCostModel{});
  auto r = pool.Run(cc, *registry_, batch);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->total_aborts, 0u);
}

// --- One contract run per attempt -----------------------------------------

/// Watches what the pool does around an engine's aborts: an abort of the
/// slot whose Read is on the stack, an abort of a slot suspended
/// mid-attempt (a cascade from another slot's operation), and any
/// operation a slot makes after an abort before it begins its next attempt.
class AbortWatchingEngine final : public testutil::AttemptCountingEngine {
 public:
  AbortWatchingEngine(BatchEngine* inner, uint32_t n)
      : AttemptCountingEngine(inner), ops_(n, 0), aborted_(n, false) {}

  void SetAbortCallback(AbortCallback cb) override {
    AttemptCountingEngine::SetAbortCallback(
        [this, cb = std::move(cb)](TxnSlot slot, obs::AbortReason reason) {
          if (slot == reading_) {
            ++self_aborts_in_read;
          } else if (slot != acting_ && ops_[slot] > 0) {
            ++suspended_aborts;
          }
          aborted_[slot] = true;
          ops_[slot] = 0;
          cb(slot, reason);
        });
  }
  uint32_t Begin(TxnSlot slot) override {
    aborted_[slot] = false;
    return AttemptCountingEngine::Begin(slot);
  }
  Result<Value> Read(TxnSlot slot, uint32_t incarnation,
                     const Key& key) override {
    Enter(slot);
    reading_ = slot;
    Result<Value> r = AttemptCountingEngine::Read(slot, incarnation, key);
    reading_ = acting_ = kRootSlot;
    return r;
  }
  Status Write(TxnSlot slot, uint32_t incarnation, const Key& key,
               Value value) override {
    Enter(slot);
    Status s = AttemptCountingEngine::Write(slot, incarnation, key, value);
    acting_ = kRootSlot;
    return s;
  }
  void Emit(TxnSlot slot, uint32_t incarnation, Value value) override {
    Enter(slot);
    AttemptCountingEngine::Emit(slot, incarnation, value);
    acting_ = kRootSlot;
  }
  Status Finish(TxnSlot slot, uint32_t incarnation) override {
    Enter(slot);
    Status s = AttemptCountingEngine::Finish(slot, incarnation);
    ops_[slot] = 0;
    acting_ = kRootSlot;
    return s;
  }

  uint64_t self_aborts_in_read = 0;
  uint64_t suspended_aborts = 0;
  uint64_t ops_after_abort = 0;

 private:
  void Enter(TxnSlot slot) {
    acting_ = slot;
    ops_after_abort += aborted_[slot] ? 1 : 0;
    ++ops_[slot];
  }

  std::vector<uint32_t> ops_;  // In the current attempt, until it ends.
  std::vector<bool> aborted_;  // Since the slot's last Begin.
  TxnSlot acting_ = kRootSlot;
  TxnSlot reading_ = kRootSlot;
};

/// What one contended batch (small tables, skewed, write-heavy) of
/// `workload` through `engine` showed.
struct AttemptRuns {
  uint64_t txns = 0;
  uint64_t aborts = 0;
  uint64_t attempts = 0;
  uint64_t runs = 0;
  uint64_t self_aborts_in_read = 0;
  uint64_t suspended_aborts = 0;
  uint64_t ops_after_abort = 0;
};

AttemptRuns RunContendedBatch(const std::string& workload,
                              const std::string& engine_name) {
  constexpr uint32_t kBatch = 400;
  workload::WorkloadOptions options = testutil::WorkloadTestOptions(
      /*num_records=*/50, /*seed=*/21, /*read_ratio=*/0.3, /*theta=*/0.9);
  options.num_warehouses = 1;
  options.customers_per_district = 20;
  options.num_items = 50;
  auto w = workload::WorkloadRegistry::Global().Create(workload, options);
  storage::MemKVStore store;
  w->InitStore(&store);
  const auto batch = w->MakeBatch(kBatch);
  testutil::RunCountingRegistry counting;
  auto inner = EngineRegistry::Global().Create(engine_name, &store, kBatch);
  AbortWatchingEngine engine(inner.get(), kBatch);
  SimExecutorPool pool(16, ExecutionCostModel{});
  auto r = pool.Run(engine, counting.registry, batch);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  AttemptRuns out;
  out.txns = kBatch;
  out.aborts = r.ok() ? r->total_aborts : 0;
  out.attempts = engine.attempts();
  out.runs = counting.runs.load();
  out.self_aborts_in_read = engine.self_aborts_in_read;
  out.suspended_aborts = engine.suspended_aborts;
  out.ops_after_abort = engine.ops_after_abort;
  return out;
}

class OneRunPerAttemptTest : public ::testing::TestWithParam<const char*> {};

// The pool resumes a suspended contract at each step instead of re-running
// it, so every attempt (one Begin) starts exactly one contract run, also
// across restarts, and after an abort a slot's next engine call is the
// Begin of an attempt that runs its contract from the top.
TEST_P(OneRunPerAttemptTest, EachAttemptStartsOneRun) {
  const AttemptRuns r = RunContendedBatch(GetParam(), "ce");
  EXPECT_GT(r.aborts, 0u);
  EXPECT_EQ(r.attempts, r.txns + r.aborts);
  EXPECT_EQ(r.runs, r.attempts);
  EXPECT_EQ(r.ops_after_abort, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, OneRunPerAttemptTest,
                         ::testing::Values("smallbank", "ycsb", "tpcc_lite"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

// A slot aborted inside its own Read restarts from the top, and so does a
// slot aborted while its contract is suspended. The abort callback destroys
// neither frame: the pool drops a run only after it has suspended, which
// the ASan leg checks. The CC's self-abort inside Read (no consistent read
// source) does not occur on these batches, so 2PL-No-Wait's read-lock
// conflict drives that path; the CC's cascades drive the other.
TEST(OneRunPerAttemptPaths, SelfAbortInsideRead) {
  const AttemptRuns r = RunContendedBatch("smallbank", "2pl");
  EXPECT_GT(r.self_aborts_in_read, 0u);
  EXPECT_EQ(r.runs, r.attempts);
  EXPECT_EQ(r.ops_after_abort, 0u);
}

TEST(OneRunPerAttemptPaths, AbortWhileSuspended) {
  const AttemptRuns r = RunContendedBatch("smallbank", "ce");
  EXPECT_GT(r.suspended_aborts, 0u);
  EXPECT_EQ(r.runs, r.attempts);
  EXPECT_EQ(r.ops_after_abort, 0u);
}

// An engine operation that returns Aborted ends the attempt where it is:
// the pool never resumes the body past the failed read, and each restart
// runs it from the top.
TEST_F(PoolTest, AbortedReadEndsTheAttempt) {
  constexpr uint32_t n = 4;
  testutil::ReadProbe probe(n);
  const auto batch = testutil::ReadProbe::Batch(n);
  testutil::AlwaysAbortSlotZeroEngine engine(
      n, testutil::AlwaysAbortSlotZeroEngine::AbortAt::kRead);
  SimExecutorPool pool(2, ExecutionCostModel{});
  auto r = pool.Run(engine, probe.registry, batch);
  ASSERT_EQ(r.status().code(), StatusCode::kInternal)
      << r.status().ToString();
  EXPECT_GT(probe.started(0), kMaxRestartsPerTxn * n);
  EXPECT_EQ(probe.started(0), engine.total_aborts());
  EXPECT_EQ(probe.resumed(0), 0u);
  for (TxnSlot s = 1; s < n; ++s) {
    EXPECT_EQ(probe.started(s), 1u) << "slot " << s;
    EXPECT_EQ(probe.resumed(s), 1u) << "slot " << s;
  }
}

}  // namespace
}  // namespace thunderbolt::ce
