// High-contention stress for ThreadExecutorPool: every (workload, engine,
// thread-count) cell must commit every transaction, preserve the
// workload's invariant, and — because the configs keep committed effects
// commutative (see workload/cross_engine_agreement_test.cc) — reach the
// exact final fingerprint the deterministic sim pool computes.
//
// This is the suite the TSan CI leg leans on (`ctest -L thread`): real
// worker threads hammer the engines' cross-slot shared state (CC latch,
// OCC verifier, 2PL lock table) under a zipfian hot set, so any missing
// synchronization shows up as a data-race report or a fingerprint split.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "ce/engine_registry.h"
#include "ce/executor_pool.h"
#include "contract/contract.h"
#include "storage/kv_store.h"
#include "testutil/testutil.h"
#include "workload/workload.h"

namespace thunderbolt::ce {
namespace {

constexpr uint32_t kBatchSize = 200;
constexpr uint32_t kBatches = 2;

workload::WorkloadOptions StressOptions(const std::string& workload_name,
                                        uint64_t seed) {
  workload::WorkloadOptions options;
  options.seed = seed;
  options.num_records = 300;  // Small zipfian population -> hot keys.
  options.theta = 0.85;
  if (workload_name == "ycsb") {
    options.read_ratio = 0.5;   // Commutative mix: reads + RMW increments.
    options.update_ratio = 0.0;
  }
  return options;
}

/// Runs kBatches batches through `engine_name` on the named pool and
/// returns the final store fingerprint (0 on failure, after EXPECTs).
uint64_t RunCell(const std::string& workload_name,
                 const std::string& engine_name, const std::string& pool_name,
                 uint32_t executors, uint64_t seed) {
  auto w = workload::WorkloadRegistry::Global().Create(
      workload_name, StressOptions(workload_name, seed));
  EXPECT_NE(w, nullptr);
  storage::MemKVStore store;
  w->InitStore(&store);
  auto registry = contract::Registry::CreateDefault();
  auto pool = CreateExecutorPool(pool_name, executors, ExecutionCostModel{});
  EXPECT_NE(pool, nullptr);
  for (uint32_t b = 0; b < kBatches; ++b) {
    auto batch = w->MakeBatch(kBatchSize);
    std::unique_ptr<BatchEngine> engine =
        EngineRegistry::Global().Create(engine_name, &store, kBatchSize);
    EXPECT_NE(engine, nullptr) << engine_name;
    if (engine == nullptr) return 0;
    auto r = pool->Run(*engine, *registry, batch);
    EXPECT_TRUE(r.ok()) << engine_name << "/" << pool_name << " x"
                        << executors << ": " << r.status().ToString();
    if (!r.ok()) return 0;
    EXPECT_EQ(r->order.size(), kBatchSize);
    // Every slot commits exactly once.
    std::vector<bool> seen(kBatchSize, false);
    for (TxnSlot s : r->order) {
      EXPECT_LT(s, kBatchSize);
      EXPECT_FALSE(seen[s]);
      seen[s] = true;
    }
    EXPECT_GE(r->commit_latency_us.Count(), kBatchSize);
    EXPECT_TRUE(store.Write(engine->FinalWrites()).ok());
  }
  Status invariant = w->CheckInvariant(store);
  EXPECT_TRUE(invariant.ok())
      << workload_name << " under " << engine_name << "/" << pool_name
      << ": " << invariant.ToString();
  return store.ContentFingerprint();
}

/// (workload, engine, thread count).
using StressParam = std::tuple<std::string, std::string, uint32_t>;

class ThreadPoolStressTest : public ::testing::TestWithParam<StressParam> {};

TEST_P(ThreadPoolStressTest, CommitsAllAndAgreesWithSim) {
  const auto& [workload_name, engine_name, threads] = GetParam();
  const uint64_t seed = 41;
  const uint64_t sim_fp = RunCell(workload_name, engine_name, "sim",
                                  /*executors=*/8, seed);
  const uint64_t thread_fp =
      RunCell(workload_name, engine_name, "thread", threads, seed);
  EXPECT_EQ(thread_fp, sim_fp)
      << workload_name << "/" << engine_name << " with " << threads
      << " threads diverged from the sim pool";
}

std::vector<StressParam> StressMatrix() {
  std::vector<StressParam> params;
  for (const char* workload : {"smallbank", "ycsb"}) {
    for (const char* engine : {"ce", "occ", "2pl"}) {
      for (uint32_t threads : {2u, 4u, 8u}) {
        params.emplace_back(workload, engine, threads);
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, ThreadPoolStressTest, ::testing::ValuesIn(StressMatrix()),
    [](const auto& info) {
      const std::string& workload = std::get<0>(info.param);
      const std::string engine =
          std::get<1>(info.param) == "2pl" ? "tpl" : std::get<1>(info.param);
      return workload + "_" + engine + "_t" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace thunderbolt::ce
