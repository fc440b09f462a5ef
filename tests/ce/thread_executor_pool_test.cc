// ThreadExecutorPool: real-thread execution must uphold the same Run
// contract as the sim pool — every transaction commits exactly once, the
// livelock bounds hold, unsupported engines are refused — and, on batches
// with commutative committed effects, drive the store to the *same* final
// fingerprint as the sim pool (the threaded-vs-sim agreement leg).
#include "ce/thread_executor_pool.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "ce/concurrency_controller.h"
#include "ce/engine_registry.h"
#include "ce/executor_pool.h"
#include "ce/sim_executor_pool.h"
#include "contract/contract.h"
#include "contract/kv.h"
#include "testutil/always_abort_engine.h"
#include "testutil/contract_runs.h"
#include "testutil/testutil.h"
#include "workload/workload.h"

namespace thunderbolt::ce {
namespace {

/// Minimal engine stub keeping the default SupportsConcurrentExecutors()
/// == false: used to pin the refusal path for multi-worker thread pools.
/// Also usable single-threaded: commits every slot at Finish except the
/// ones listed in `always_abort`, which re-queue forever (livelock probe).
class StubEngine final : public BatchEngine {
 public:
  StubEngine(uint32_t n, std::vector<TxnSlot> always_abort = {})
      : n_(n), always_abort_(std::move(always_abort)), committed_(n, false) {}

  void SetAbortCallback(AbortCallback cb) override { cb_ = std::move(cb); }
  uint32_t Begin(TxnSlot) override { return 0; }
  Result<Value> Read(TxnSlot, uint32_t, const Key&) override {
    return Value{0};
  }
  Status Write(TxnSlot, uint32_t, const Key&, Value) override {
    return Status::OK();
  }
  void Emit(TxnSlot, uint32_t, Value) override {}
  Status Finish(TxnSlot slot, uint32_t) override {
    for (TxnSlot bad : always_abort_) {
      if (slot == bad) {
        ++total_aborts_;
        if (cb_) cb_(slot, obs::AbortReason::kValidationFailure);
        return Status::Aborted("stub: permanent abort");
      }
    }
    if (!committed_[slot]) {
      committed_[slot] = true;
      ++committed_count_;
      order_.push_back(slot);
    }
    return Status::OK();
  }
  bool AllCommitted() const override { return committed_count_ == n_; }
  uint32_t committed_count() const override { return committed_count_; }
  uint64_t total_aborts() const override { return total_aborts_; }
  const std::vector<TxnSlot>& SerializationOrder() const override {
    return order_;
  }
  TxnRecord ExtractRecord(TxnSlot) const override { return TxnRecord{}; }
  storage::WriteBatch FinalWrites() const override { return {}; }

 private:
  const uint32_t n_;
  const std::vector<TxnSlot> always_abort_;
  AbortCallback cb_;
  std::vector<bool> committed_;
  uint32_t committed_count_ = 0;
  uint64_t total_aborts_ = 0;
  std::vector<TxnSlot> order_;
};

/// `count` kv.update transactions over a tiny record set — enough to drive
/// the stub engine, which ignores the actual keys anyway.
std::vector<txn::Transaction> MakeKvBatch(size_t count) {
  std::vector<txn::Transaction> batch(count);
  for (size_t i = 0; i < count; ++i) {
    batch[i].id = i;
    batch[i].contract = contract::kKvUpdate;
    batch[i].accounts = {"r" + std::to_string(i % 3)};
    batch[i].params = {static_cast<Value>(i)};
  }
  return batch;
}

class ThreadPoolTest : public ::testing::Test {
 protected:
  ThreadPoolTest() : registry_(contract::Registry::CreateDefault()) {}

  std::vector<txn::Transaction> MakeBatch(size_t n, uint64_t seed,
                                          double read_ratio = 0.5) {
    return testutil::MakeSmallBankBatch(
        &store_, n, testutil::WorkloadTestOptions(100, seed, read_ratio));
  }

  storage::MemKVStore store_;
  std::shared_ptr<contract::Registry> registry_;
};

TEST_F(ThreadPoolTest, EmptyBatch) {
  ConcurrencyController cc(&store_, 0);
  ThreadExecutorPool pool(4, ExecutionCostModel{});
  auto r = pool.Run(cc, *registry_, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->records.size(), 0u);
  EXPECT_EQ(r->duration, 0u);
}

TEST_F(ThreadPoolTest, ZeroExecutorsRejected) {
  ConcurrencyController cc(&store_, 1);
  ThreadExecutorPool pool(0, ExecutionCostModel{});
  auto batch = MakeBatch(1, 21);
  EXPECT_TRUE(pool.Run(cc, *registry_, batch).status().IsInvalidArgument());
}

TEST_F(ThreadPoolTest, FactoryKnowsBothPools) {
  EXPECT_NE(CreateExecutorPool("sim", 2, ExecutionCostModel{}), nullptr);
  auto pool = CreateExecutorPool("thread", 2, ExecutionCostModel{});
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->name(), "thread");
  EXPECT_EQ(pool->num_executors(), 2u);
  EXPECT_EQ(CreateExecutorPool("bogus", 2, ExecutionCostModel{}), nullptr);
  EXPECT_EQ(ExecutorPoolNames(),
            (std::vector<std::string>{"sim", "thread"}));
}

TEST_F(ThreadPoolTest, RefusesUnsupportedEngineWithMultipleWorkers) {
  auto batch = MakeKvBatch(4);
  StubEngine stub(4);
  ThreadExecutorPool pool(4, ExecutionCostModel{});
  auto r = pool.Run(stub, *registry_, batch);
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
}

TEST_F(ThreadPoolTest, SingleWorkerRunsUnsupportedEngine) {
  auto batch = MakeKvBatch(6);
  StubEngine stub(6);
  ThreadExecutorPool pool(1, ExecutionCostModel{});
  auto r = pool.Run(stub, *registry_, batch);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->order.size(), 6u);
}

TEST_F(ThreadPoolTest, AllTransactionsCommit) {
  auto batch = MakeBatch(200, 22);
  ConcurrencyController cc(&store_, 200);
  ThreadExecutorPool pool(4, ExecutionCostModel{});
  auto r = pool.Run(cc, *registry_, batch);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->order.size(), 200u);
  EXPECT_EQ(r->records.size(), 200u);
  std::vector<bool> seen(200, false);
  for (TxnSlot s : r->order) {
    EXPECT_FALSE(seen[s]);
    seen[s] = true;
  }
  EXPECT_GT(r->duration, 0u);
  // Cascade re-finishes may record a latency sample more than once per
  // slot, so the histogram holds at least one sample per transaction.
  EXPECT_GE(r->commit_latency_us.Count(), 200u);
}

TEST_F(ThreadPoolTest, PoolReusableAcrossBatches) {
  ThreadExecutorPool pool(4, ExecutionCostModel{});
  for (uint64_t seed : {23u, 24u, 25u}) {
    storage::MemKVStore store = store_;
    auto batch = MakeBatch(100, seed);
    ConcurrencyController cc(&store, 100);
    auto r = pool.Run(cc, *registry_, batch);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->order.size(), 100u);
  }
}

TEST_F(ThreadPoolTest, HighContentionStillCommitsEverything) {
  // Update-only on 4 hot accounts: maximal write-write conflict pressure.
  auto batch = testutil::MakeSmallBankBatch(
      &store_, 120,
      testutil::WorkloadTestOptions(/*num_records=*/4, /*seed=*/26,
                                    /*read_ratio=*/0.0, /*theta=*/0.9));
  ConcurrencyController cc(&store_, 120);
  ThreadExecutorPool pool(8, ExecutionCostModel{});
  auto r = pool.Run(cc, *registry_, batch);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->order.size(), 120u);
}

TEST_F(ThreadPoolTest, PerSlotLivelockBoundTripsBeforeGlobalCap) {
  const uint32_t n = 4;
  auto batch = MakeKvBatch(n);
  StubEngine stub(n, /*always_abort=*/{0});
  // Negligible backoff so the bounded restart storm stays fast.
  ExecutionCostModel costs;
  costs.restart_cost = Micros(1);
  costs.restart_backoff_cap = 0;
  ThreadExecutorPool pool(1, costs);
  auto r = pool.Run(stub, *registry_, batch);
  ASSERT_EQ(r.status().code(), StatusCode::kInternal)
      << r.status().ToString();
  // The per-transaction bound (64 * n) must fire long before the global
  // backstop (1000 * n) would.
  EXPECT_GT(stub.total_aborts(), kMaxRestartsPerTxn * n);
  EXPECT_LT(stub.total_aborts(), kMaxRestartFactor * n / 2);
}

// Each attempt runs its contract straight through once: a contract run per
// Begin, on every workload, with 4 workers on contended batches.
TEST(ThreadPoolRunsTest, EachAttemptStartsOneRun) {
  constexpr uint32_t kBatch = 300;
  for (const char* name : {"smallbank", "ycsb", "tpcc_lite"}) {
    workload::WorkloadOptions options = testutil::WorkloadTestOptions(
        /*num_records=*/50, /*seed=*/22, /*read_ratio=*/0.3, /*theta=*/0.9);
    options.num_warehouses = 1;
    options.customers_per_district = 20;
    options.num_items = 50;
    auto w = workload::WorkloadRegistry::Global().Create(name, options);
    storage::MemKVStore store;
    w->InitStore(&store);
    const auto batch = w->MakeBatch(kBatch);
    testutil::RunCountingRegistry counting;
    ConcurrencyController cc(&store, kBatch);
    testutil::AttemptCountingEngine engine(&cc);
    ExecutionCostModel costs;
    costs.restart_cost = Micros(1);
    ThreadExecutorPool pool(4, costs);
    auto r = pool.Run(engine, counting.registry, batch);
    ASSERT_TRUE(r.ok()) << name << ": " << r.status().ToString();
    EXPECT_GE(engine.attempts(), kBatch) << name;
    EXPECT_EQ(counting.runs.load(), engine.attempts()) << name;
  }
}

// An engine operation that returns Aborted ends the attempt where it is:
// the worker never resumes the body past the failed read, and each
// re-admission runs it from the top.
TEST_F(ThreadPoolTest, AbortedReadEndsTheAttempt) {
  constexpr uint32_t n = 4;
  testutil::ReadProbe probe(n);
  const auto batch = testutil::ReadProbe::Batch(n);
  testutil::AlwaysAbortSlotZeroEngine engine(
      n, testutil::AlwaysAbortSlotZeroEngine::AbortAt::kRead);
  ExecutionCostModel costs;
  costs.restart_cost = Micros(1);
  costs.restart_backoff_cap = 0;
  ThreadExecutorPool pool(1, costs);
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

// --- threaded-vs-sim agreement -------------------------------------------
// Mirrors workload/cross_engine_agreement_test.cc: batches with commutative
// committed effects admit exactly one final state per seed, so the thread
// pool must land on the sim pool's fingerprint for every engine.

constexpr uint32_t kAgreementBatch = 150;
constexpr uint32_t kAgreementBatches = 2;

workload::WorkloadOptions AgreementOptions(const std::string& workload_name,
                                           uint64_t seed) {
  workload::WorkloadOptions options;
  options.seed = seed;
  options.num_records = 300;
  options.theta = 0.85;
  if (workload_name == "ycsb") {
    options.read_ratio = 0.5;   // Reads + commuting RMW increments,
    options.update_ratio = 0.0; // no blind last-writer-wins updates.
  }
  return options;
}

uint64_t RunWithPool(const std::string& workload_name,
                     const std::string& engine_name,
                     const std::string& pool_name, uint32_t executors,
                     uint64_t seed) {
  auto w = workload::WorkloadRegistry::Global().Create(
      workload_name, AgreementOptions(workload_name, seed));
  EXPECT_NE(w, nullptr);
  storage::MemKVStore store;
  w->InitStore(&store);
  auto registry = contract::Registry::CreateDefault();
  auto pool = CreateExecutorPool(pool_name, executors, ExecutionCostModel{});
  EXPECT_NE(pool, nullptr);
  for (uint32_t b = 0; b < kAgreementBatches; ++b) {
    auto batch = w->MakeBatch(kAgreementBatch);
    std::unique_ptr<BatchEngine> engine =
        EngineRegistry::Global().Create(engine_name, &store, kAgreementBatch);
    EXPECT_NE(engine, nullptr) << engine_name;
    if (engine == nullptr) return 0;
    auto r = pool->Run(*engine, *registry, batch);
    EXPECT_TRUE(r.ok()) << engine_name << "/" << pool_name << ": "
                        << r.status().ToString();
    if (!r.ok()) return 0;
    EXPECT_TRUE(store.Write(engine->FinalWrites()).ok());
  }
  Status invariant = w->CheckInvariant(store);
  EXPECT_TRUE(invariant.ok())
      << workload_name << " under " << engine_name << "/" << pool_name
      << ": " << invariant.ToString();
  return store.ContentFingerprint();
}

TEST(ThreadVsSimAgreementTest, IdenticalFingerprintsPerSeed) {
  for (const char* workload_name : {"smallbank", "ycsb"}) {
    for (const char* engine_name : {"ce", "occ", "2pl"}) {
      for (uint64_t seed : {31u, 32u}) {
        const uint64_t sim_fp =
            RunWithPool(workload_name, engine_name, "sim", 8, seed);
        const uint64_t thread_fp =
            RunWithPool(workload_name, engine_name, "thread", 4, seed);
        EXPECT_EQ(thread_fp, sim_fp)
            << workload_name << "/" << engine_name
            << " diverged from sim at seed " << seed;
      }
    }
  }
}

}  // namespace
}  // namespace thunderbolt::ce
