// Long-run memory bound: a cluster keeps only a few DAG rounds per
// replica, however long it runs. Each replica collects its DAG below
// kDagGcDepth rounds under every committed leader, so after any slice of a
// long run it retains a bounded number of blocks, and a block from the
// first second is freed, payload included, long before the end: no network
// message, simulator closure or node member may pin it. Labelled `soak`.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/cluster.h"
#include "testutil/testutil.h"

namespace thunderbolt::core {
namespace {

TEST(ClusterSoakTest, RetainedDagStaysBoundedOverTwentyVirtualSeconds) {
  ThunderboltConfig cfg;
  cfg.n = 4;
  cfg.batch_size = 100;
  cfg.num_executors = 4;
  cfg.num_validators = 4;
  cfg.seed = 21;
  Cluster cluster(cfg, "smallbank",
                  testutil::WorkloadTestOptions(/*num_records=*/400,
                                                /*seed=*/22));

  // Rounds from the watermark up to the last committed leader L are
  // kDagGcDepth + 1; above L the DAG holds round L+1, the next leader's
  // round L+2, and the round-(L+3) blocks that commit it, which can land
  // before that commit. Probes over seeds and n in {4, 8} peak at 11.25 n.
  const size_t max_retained = (kDagGcDepth + 4) * cfg.n;
  std::weak_ptr<const dag::Block> early_block;
  std::weak_ptr<const dag::BlockContent> early_payload;
  for (int second = 1; second <= 20; ++second) {
    ClusterResult r = cluster.Run(Seconds(1));
    EXPECT_GT(r.committed_single, 0u) << "second " << second;
    for (ReplicaId id = 0; id < cfg.n; ++id) {
      const dag::DagCore& dag = cluster.node(id).dag();
      EXPECT_LE(dag.retained_block_count(), max_retained)
          << "replica " << id << ", second " << second;
      EXPECT_GT(dag.gc_watermark(), 0u);
    }
    if (second == 1) {
      // The observer's oldest retained block still has a payload now.
      const dag::DagCore& dag = cluster.node(0).dag();
      dag::BlockPtr block =
          dag.GetBlock(std::max<Round>(dag.gc_watermark(), 1), 0);
      ASSERT_NE(block, nullptr);
      ASSERT_NE(block->content, nullptr);
      early_block = block;
      early_payload = block->content;
    }
  }
  EXPECT_TRUE(early_block.expired());
  EXPECT_TRUE(early_payload.expired());
  // Nothing dropped below a watermark; unanswered block requests are not
  // counted (see dag/dag_core.h).
  for (ReplicaId id = 0; id < cfg.n; ++id) {
    EXPECT_EQ(cluster.node(id).dag().ignored_below_gc(), 0u);
  }
  EXPECT_TRUE(cluster.CheckInvariant().ok())
      << cluster.CheckInvariant().ToString();
}

}  // namespace
}  // namespace thunderbolt::core
