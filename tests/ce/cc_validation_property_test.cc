// Regression property: every schedule the CE produces must survive
// replica-side validation — the declared first-read of every transaction
// must equal the value produced by the latest preceding writer in the
// scheduled order. This is strictly stronger than the emitted-results
// check in cc_property_test.cc (it caught the fragile-transitive-path bug
// where ordering constraints relied on edges through later-aborted
// transactions).
#include <gtest/gtest.h>

#include "ce/concurrency_controller.h"
#include "ce/sim_executor_pool.h"
#include "contract/contract.h"
#include "core/validator.h"
#include "testutil/testutil.h"
#include "workload/smallbank_workload.h"

namespace thunderbolt::ce {
namespace {

struct Param {
  uint64_t seed;
  uint32_t batch;
  uint32_t executors;
  double theta;
  double read_ratio;
};

class CcValidationProperty : public ::testing::TestWithParam<Param> {};

TEST_P(CcValidationProperty, ScheduleSurvivesValidation) {
  const Param p = GetParam();
  workload::WorkloadOptions wc = testutil::WorkloadTestOptions(
      /*num_records=*/1000, p.seed, p.read_ratio, p.theta);
  wc.num_shards = 8;
  workload::SmallBankWorkload w(wc);
  storage::MemKVStore base;
  w.InitStore(&base);
  auto batch = w.MakeShardBatch(p.seed % 8, p.batch);
  auto registry = contract::Registry::CreateDefault();

  ConcurrencyController cc(&base, p.batch);
  SimExecutorPool pool(p.executors, ExecutionCostModel{});
  auto r = pool.Run(cc, *registry, batch);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  std::vector<core::PreplayedTxn> preplayed;
  for (TxnSlot slot : r->order) {
    core::PreplayedTxn pt;
    pt.tx = batch[slot];
    pt.rw_set = r->records[slot].rw_set;
    pt.emitted = r->records[slot].emitted;
    preplayed.push_back(std::move(pt));
  }
  core::ValidationResult vr =
      core::ValidatePreplay(*registry, preplayed, base);
  EXPECT_TRUE(vr.valid) << "seed " << p.seed << ": " << vr.failure;
}

std::vector<Param> MakeParams() {
  std::vector<Param> params;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    params.push_back(Param{seed, 300, 16, 0.85, 0.5});
  }
  // Extra contention corners.
  params.push_back(Param{100, 500, 16, 0.95, 0.0});
  params.push_back(Param{101, 500, 8, 0.95, 0.5});
  params.push_back(Param{102, 200, 32, 0.99, 0.2});
  params.push_back(Param{103, 500, 4, 0.75, 0.9});
  return params;
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, CcValidationProperty,
                         ::testing::ValuesIn(MakeParams()));

}  // namespace
}  // namespace thunderbolt::ce
