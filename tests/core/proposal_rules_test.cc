// Behavioural tests for the proposal rules P1-P6 (paper section 5.1),
// observed through cluster runs.
#include <memory>

#include <gtest/gtest.h>

#include "core/cluster.h"
#include "testutil/testutil.h"

namespace thunderbolt::core {
namespace {

ThunderboltConfig BaseConfig() {
  ThunderboltConfig cfg;
  cfg.n = 4;
  cfg.batch_size = 60;
  cfg.num_executors = 4;
  cfg.num_validators = 4;
  cfg.proposal_prep_cost = Millis(5);
  cfg.leader_timeout = Millis(150);
  cfg.seed = 201;
  return cfg;
}

workload::WorkloadOptions BaseWorkload(double cross_ratio) {
  workload::WorkloadOptions wc =
      testutil::WorkloadTestOptions(/*num_records=*/600, /*seed=*/202);
  wc.cross_shard_ratio = cross_ratio;
  return wc;
}

// P1: cross-shard transactions bypass the CE entirely.
TEST(ProposalRulesTest, P1CrossShardBypassesPreplay) {
  Cluster cluster(BaseConfig(), "smallbank", BaseWorkload(1.0));
  ClusterResult r = cluster.Run(Seconds(5));
  EXPECT_EQ(r.committed_single, 0u);
  EXPECT_EQ(r.preplay_aborts, 0u);  // Nothing preplayed, nothing aborted.
  EXPECT_GT(r.committed_cross, 100u);
}

// P6: when a round leader is silent, waiting proposers convert their
// single-shard transactions to cross-shard ones and submit them directly.
TEST(ProposalRulesTest, P6LeaderTimeoutConverts) {
  auto cfg = BaseConfig();
  cfg.silence_rounds_k = 1000000;  // Isolate P6 from reconfiguration.
  Cluster cluster(cfg, "smallbank", BaseWorkload(0.0));
  // Replica 1 leads rounds 3, 11, 19, ... (round-robin); crash it early.
  cluster.CrashReplicaAt(1, Millis(100));
  ClusterResult r = cluster.Run(Seconds(5));
  EXPECT_GT(r.conversions, 0u);
  // Converted transactions execute through the OE path.
  EXPECT_GT(r.committed_cross, 0u);
  // The system keeps processing despite the dead leader.
  EXPECT_GT(r.committed_single, 200u);
}

/// The P6 cell above: no cross-shard traffic, and replica 1, a round
/// leader, crashed early.
std::unique_ptr<Cluster> LeaderCrashCluster() {
  auto cfg = BaseConfig();
  cfg.silence_rounds_k = 1000000;  // No reconfiguration.
  auto cluster =
      std::make_unique<Cluster>(cfg, "smallbank", BaseWorkload(0.0));
  cluster->CrashReplicaAt(1, Millis(100));
  return cluster;
}

// Every proposer counts its own conversions. With no cross-shard traffic
// generated, each committed cross-shard transaction is one that some
// proposer converted in this run.
TEST(ProposalRulesTest, ConversionsCountEveryProposer) {
  std::unique_ptr<Cluster> cluster = LeaderCrashCluster();
  ClusterResult r = cluster->Run(Seconds(5));
  EXPECT_GT(r.committed_cross, 0u);
  EXPECT_GE(r.conversions, r.committed_cross);
}

// Each proposer attributes its preplay aborts to the shard it preplays,
// so the per-shard counters partition the cluster's total.
TEST(ProposalRulesTest, ShardPreplayAbortsSumToTotal) {
  std::unique_ptr<Cluster> cluster = LeaderCrashCluster();
  ClusterResult r = cluster->Run(Seconds(5));
  uint64_t by_shard = 0;
  for (uint32_t shard = 0; shard < 4; ++shard) {
    const obs::Counter* aborts = cluster->obs().metrics().FindCounter(
        "cluster.shard.preplay_aborts", {{"shard", shard}});
    if (aborts != nullptr) by_shard += aborts->value();
  }
  EXPECT_GT(r.preplay_aborts, 0u);
  EXPECT_EQ(by_shard, r.preplay_aborts);
}

// P4 / section 5.4: single-shard transactions whose accounts overlap
// pending cross-shard transactions are deferred (possibly via Skip blocks)
// or converted, never preplayed concurrently with the conflict.
TEST(ProposalRulesTest, P4ConflictsDeferOrConvert) {
  Cluster cluster(BaseConfig(), "smallbank", BaseWorkload(0.3));
  ClusterResult r = cluster.Run(Seconds(5));
  // Deferral/conversion machinery must have engaged under 30% cross load
  // with a skewed account distribution.
  EXPECT_GT(r.conversions + r.skip_blocks, 0u);
  // Safety net: nothing invalid committed.
  EXPECT_EQ(r.invalid_blocks, 0u);
  // Balances conserved across both execution paths.
  EXPECT_TRUE(cluster.CheckInvariant().ok())
      << cluster.CheckInvariant().ToString();
}

// P2/G1: within one run, committed work includes both paths and the
// deterministic state equals a conserved-balance state (order violations
// between the paths would break conservation under contention).
TEST(ProposalRulesTest, MixedPathsStayConsistent) {
  for (uint64_t seed : {301u, 302u, 303u}) {
    auto cfg = BaseConfig();
    cfg.seed = seed;
    auto wc = BaseWorkload(0.15);
    wc.seed = seed + 1000;
    Cluster cluster(cfg, "smallbank", wc);
    ClusterResult r = cluster.Run(Seconds(4));
    EXPECT_GT(r.committed_single, 0u) << "seed " << seed;
    EXPECT_GT(r.committed_cross, 0u) << "seed " << seed;
    EXPECT_TRUE(cluster.CheckInvariant().ok())
        << "seed " << seed << ": " << cluster.CheckInvariant().ToString();
  }
}

// Skip blocks appear under sustained cross-shard pressure when the
// section 5.4 preplay-recovery variant is enabled.
TEST(ProposalRulesTest, SkipBlocksUnderCrossPressure) {
  auto cfg = BaseConfig();
  cfg.use_skip_blocks = true;
  auto wc = BaseWorkload(0.6);
  wc.theta = 0.95;  // Very hot accounts -> persistent conflicts.
  Cluster cluster(cfg, "smallbank", wc);
  ClusterResult r = cluster.Run(Seconds(5));
  EXPECT_GT(r.skip_blocks, 0u);
}

// Ablation: the immediate-conversion (P4) and Skip-block (5.4) variants
// both preserve safety; conversions dominate in the default mode, skips
// in the deferred mode.
TEST(ProposalRulesTest, SkipModeVsConvertMode) {
  auto wc = BaseWorkload(0.3);
  auto cfg = BaseConfig();
  cfg.use_skip_blocks = false;
  Cluster convert_mode(cfg, "smallbank", wc);
  ClusterResult rc = convert_mode.Run(Seconds(4));
  cfg.use_skip_blocks = true;
  Cluster skip_mode(cfg, "smallbank", wc);
  ClusterResult rs = skip_mode.Run(Seconds(4));
  EXPECT_EQ(rc.invalid_blocks, 0u);
  EXPECT_EQ(rs.invalid_blocks, 0u);
  EXPECT_GT(rc.conversions, 0u);
  EXPECT_EQ(rc.skip_blocks, 0u);
  EXPECT_GT(rs.skip_blocks, 0u);
}

}  // namespace
}  // namespace thunderbolt::core
