// Property tests for the CC's serializability theorem (paper section 10):
// for randomized high-contention SmallBank batches executed through the
// simulated executor pool, re-executing the batch *serially* in the CC's
// scheduled order must reproduce (a) every transaction's emitted results
// (Read-Complete) and (b) the exact final state (Write-Complete).
#include <gtest/gtest.h>

#include "baselines/serial_executor.h"
#include "ce/concurrency_controller.h"
#include "ce/sim_executor_pool.h"
#include "contract/contract.h"
#include "testutil/testutil.h"
#include "workload/smallbank_workload.h"

namespace thunderbolt::ce {
namespace {

struct PropertyParam {
  uint64_t seed;
  uint64_t accounts;
  double theta;
  double read_ratio;
  uint32_t batch;
  uint32_t executors;
};

class CcSerializabilityTest : public ::testing::TestWithParam<PropertyParam> {
};

TEST_P(CcSerializabilityTest, ScheduledOrderIsSerialOrder) {
  const PropertyParam p = GetParam();
  workload::WorkloadOptions wc =
      testutil::WorkloadTestOptions(p.accounts, p.seed, p.read_ratio, p.theta);
  workload::SmallBankWorkload workload(wc);

  storage::MemKVStore store;
  workload.InitStore(&store);
  storage::MemKVStore serial_store = store;

  std::vector<txn::Transaction> batch = workload.MakeBatch(p.batch);
  auto registry = contract::Registry::CreateDefault();

  ConcurrencyController cc(&store, static_cast<uint32_t>(batch.size()));
  SimExecutorPool pool(p.executors, ExecutionCostModel{});
  auto result = pool.Run(cc, *registry, batch);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // The dependency graph must be acyclic after full commit.
  EXPECT_TRUE(cc.GraphIsAcyclic());

  // Apply the CC's final writes.
  ASSERT_TRUE(store.Write(cc.FinalWrites()).ok());

  // Serial re-execution in the scheduled order.
  std::vector<txn::Transaction> serial_batch;
  serial_batch.reserve(batch.size());
  for (TxnSlot slot : result->order) serial_batch.push_back(batch[slot]);
  baselines::SerialExecutionResult serial = baselines::ExecuteSerial(
      *registry, serial_batch, &serial_store, Micros(1));

  // (a) Read-Complete: every transaction emits identical results.
  for (size_t i = 0; i < result->order.size(); ++i) {
    TxnSlot slot = result->order[i];
    EXPECT_EQ(result->records[slot].emitted, serial.records[i].emitted)
        << "txn " << batch[slot].id << " (" << batch[slot].contract
        << ") diverged at order position " << i;
  }

  // (b) Write-Complete: the final states are identical.
  EXPECT_EQ(store.ContentFingerprint(), serial_store.ContentFingerprint());

  // SmallBank invariant: SendPayment conserves total balance.
  EXPECT_EQ(workload.TotalBalance(store),
            static_cast<storage::Value>(
                p.accounts * (workload::SmallBankWorkload::kInitialChecking +
                              workload::SmallBankWorkload::kInitialSavings)));
}

INSTANTIATE_TEST_SUITE_P(
    ContentionSweep, CcSerializabilityTest,
    ::testing::Values(
        // Low contention, read-heavy.
        PropertyParam{1, 1000, 0.5, 0.8, 200, 4},
        // Paper's default contention.
        PropertyParam{2, 1000, 0.85, 0.5, 300, 8},
        PropertyParam{3, 1000, 0.85, 0.5, 500, 16},
        // Update-only (Pr = 0), high contention.
        PropertyParam{4, 500, 0.85, 0.0, 300, 8},
        // Extreme contention: tiny hot set.
        PropertyParam{5, 20, 0.9, 0.2, 200, 8},
        PropertyParam{6, 10, 0.9, 0.0, 100, 16},
        // Single executor degenerates to serial execution.
        PropertyParam{7, 100, 0.85, 0.5, 200, 1},
        // Many executors vs small batch.
        PropertyParam{8, 50, 0.85, 0.3, 64, 32},
        // More seeds over the default setup.
        PropertyParam{9, 1000, 0.85, 0.5, 400, 12},
        PropertyParam{10, 200, 0.95, 0.5, 300, 8},
        PropertyParam{11, 2000, 0.75, 0.1, 300, 8},
        PropertyParam{12, 30, 0.99, 0.5, 150, 6}));

}  // namespace
}  // namespace thunderbolt::ce
