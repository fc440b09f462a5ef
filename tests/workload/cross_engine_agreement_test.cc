// Cross-engine agreement: for every registered workload, all four engines
// (serial, OCC, 2PL-No-Wait, Thunderbolt CE) must drive the store to the
// *same* final state and preserve the workload's invariant.
//
// Engines are free to pick different serialization orders, so agreement
// configs keep the committed effects commutative: SmallBank seeds balances
// far above the largest transfer (no declined sends), YCSB runs the
// read+RMW mix (no blind last-writer-wins updates), and TPC-C-lite's
// programs are increment-only with stock seeded above the restock
// threshold. Under those conditions every serializable order produces one
// final state — so any fingerprint divergence is an engine bug, not an
// ordering artifact.
#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/serial_executor.h"
#include "ce/engine_registry.h"
#include "ce/sim_executor_pool.h"
#include "contract/contract.h"
#include "testutil/testutil.h"
#include "workload/workload.h"

namespace thunderbolt::workload {
namespace {

constexpr uint32_t kBatchSize = 200;
constexpr uint32_t kBatches = 3;
const char* const kConcurrentEngines[] = {"occ", "2pl", "ce"};

WorkloadOptions AgreementOptions(const std::string& workload_name,
                                 uint64_t seed) {
  WorkloadOptions options;
  options.seed = seed;
  options.num_records = 300;  // Small population -> real contention.
  options.theta = 0.85;
  if (workload_name == "ycsb") {
    // Commutative mix: reads + RMW increments, no blind updates.
    options.read_ratio = 0.5;
    options.update_ratio = 0.0;
  }
  if (workload_name == "tpcc_lite") {
    options.num_warehouses = 2;
    options.districts_per_warehouse = 3;
    options.customers_per_district = 10;
    options.num_items = 40;
  }
  return options;
}

/// Runs kBatches batches (regenerated identically per engine from the
/// seed) through `engine_name` on the named storage backend and returns
/// the final fingerprint.
uint64_t RunEngine(const std::string& workload_name,
                   const std::string& engine_name,
                   const std::string& store_name, uint64_t seed) {
  auto w = WorkloadRegistry::Global().Create(
      workload_name, AgreementOptions(workload_name, seed));
  EXPECT_NE(w, nullptr);
  std::unique_ptr<storage::KVStore> store =
      storage::StoreRegistry::Global().Create(store_name);
  EXPECT_NE(store, nullptr);
  w->InitStore(store.get());
  auto registry = contract::Registry::CreateDefault();
  ce::SimExecutorPool pool(8, ce::ExecutionCostModel{});
  for (uint32_t b = 0; b < kBatches; ++b) {
    auto batch = w->MakeBatch(kBatchSize);
    if (engine_name == "serial") {
      baselines::ExecuteSerial(*registry, batch, store.get(), Micros(1));
      continue;
    }
    std::unique_ptr<ce::BatchEngine> engine =
        ce::EngineRegistry::Global().Create(engine_name, store.get(),
                                            kBatchSize);
    EXPECT_NE(engine, nullptr) << engine_name;
    if (engine == nullptr) break;
    auto r = pool.Run(*engine, *registry, batch);
    EXPECT_TRUE(r.ok()) << engine_name << ": " << r.status().ToString();
    if (!r.ok()) break;
    EXPECT_TRUE(store->Write(engine->FinalWrites()).ok());
  }
  Status invariant = w->CheckInvariant(*store);
  EXPECT_TRUE(invariant.ok())
      << workload_name << " under " << engine_name << " on " << store_name
      << ": " << invariant.ToString();
  return store->ContentFingerprint();
}

/// (workload name, store backend name).
using AgreementParam = std::pair<std::string, std::string>;

class CrossEngineAgreementTest
    : public ::testing::TestWithParam<AgreementParam> {};

TEST_P(CrossEngineAgreementTest, AllEnginesReachSameState) {
  const auto& [workload_name, store_name] = GetParam();
  ASSERT_TRUE(WorkloadRegistry::Global().Contains(workload_name));
  for (uint64_t seed : {91u, 92u}) {
    uint64_t serial_fp = RunEngine(workload_name, "serial", store_name, seed);
    for (const char* engine_name : kConcurrentEngines) {
      uint64_t fp = RunEngine(workload_name, engine_name, store_name, seed);
      EXPECT_EQ(fp, serial_fp)
          << workload_name << ": " << engine_name
          << " diverged from serial at seed " << seed << " on "
          << store_name;
    }
  }
}

// Same seed + same engine twice -> byte-identical final state (the
// determinism leg: generators and engines introduce no hidden entropy).
TEST_P(CrossEngineAgreementTest, FixedSeedReproducesExactly) {
  const auto& [workload_name, store_name] = GetParam();
  for (const char* engine_name : {"serial", "ce"}) {
    uint64_t first = RunEngine(workload_name, engine_name, store_name, 93);
    uint64_t second = RunEngine(workload_name, engine_name, store_name, 93);
    EXPECT_EQ(first, second)
        << workload_name << " under " << engine_name << " on " << store_name;
  }
}

// The store backend sits below serializability: mem and cow runs of the
// same (workload, engine, seed) must agree on the final fingerprint.
TEST_P(CrossEngineAgreementTest, StoreBackendsAgree) {
  const auto& [workload_name, store_name] = GetParam();
  if (store_name != "mem") GTEST_SKIP() << "mem leg covers the pairing";
  for (const char* engine_name : {"serial", "ce"}) {
    uint64_t mem_fp = RunEngine(workload_name, engine_name, "mem", 94);
    uint64_t cow_fp = RunEngine(workload_name, engine_name, "cow", 94);
    EXPECT_EQ(mem_fp, cow_fp)
        << workload_name << " under " << engine_name;
  }
}

/// Every *registered* workload is covered automatically on the historical
/// "mem" backend, the persistent "cow" backend, and the durable "wal"
/// stack (group-committed log over a block-cached sorted inner): a new
/// workload registration must ship an AgreementOptions config with
/// commutative committed effects (or extend it) to keep this suite
/// meaningful.
std::vector<AgreementParam> AgreementMatrix() {
  std::vector<AgreementParam> params;
  for (const std::string& workload : WorkloadRegistry::Global().Names()) {
    params.emplace_back(workload, "mem");
    params.emplace_back(workload, "cow");
    params.emplace_back(
        workload, "wal:group_commit=4,inner=cached:capacity=128,inner=sorted");
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, CrossEngineAgreementTest,
    ::testing::ValuesIn(AgreementMatrix()), [](const auto& info) {
      // Store specs carry ':', '=' and ',' — flatten to valid test names.
      std::string name = info.param.first + "_" + info.param.second;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace thunderbolt::workload
