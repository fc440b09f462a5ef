// Integration tests for the Tusk DAG: certification, round advancement,
// the leader commit rule (Figure 2), cross-replica commit consistency, and
// block synchronization under censorship.
#include "dag/dag_core.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/simulator.h"

namespace thunderbolt::dag {
namespace {

/// Minimal payload: an integer tag.
struct TestContent final : public BlockContent {
  explicit TestContent(uint64_t v) : value(v) {}
  uint64_t value;
  Hash256 ContentDigest() const override {
    Sha256 h;
    h.UpdateInt(value);
    return h.Finalize();
  }
};

/// Harness running n DagCores over a simulated network, auto-proposing a
/// tagged block whenever a round becomes ready. With `gc_depth` > 0, each
/// core collects its DAG below that many rounds under every committed
/// leader, as core::ThunderboltNode does with kDagGcDepth.
class DagHarness {
 public:
  explicit DagHarness(uint32_t n, uint64_t seed = 5, Round gc_depth = 0)
      : n_(n),
        net_(&sim_, n, net::LatencyModel::Lan(), seed),
        keys_(crypto::KeyDirectory::Create(n, seed)) {
    for (ReplicaId id = 0; id < n; ++id) {
      DagConfig cfg;
      cfg.n = n;
      cfg.id = id;
      cores_.push_back(std::make_unique<DagCore>(cfg, &keys_, &net_));
      DagCore* core = cores_.back().get();
      core->SetRoundReadyCallback([this, id, core](Round r) {
        if (!auto_propose_[id]) return;
        core->Propose(r, std::make_shared<TestContent>(id * 1000 + r));
      });
      core->SetCommitCallback([this, id, core,
                               gc_depth](const CommittedSubDag& sub) {
        for (const BlockPtr& b : sub.blocks) {
          commit_log_[id].emplace_back(b->round, b->proposer);
        }
        leader_commits_[id].push_back(sub.leader_round);
        if (gc_depth > 0 && sub.leader_round > gc_depth) {
          core->CollectGarbageBelow(sub.leader_round - gc_depth);
        }
      });
      net_.RegisterHandler(id, [core](ReplicaId from,
                                      const net::PayloadPtr& p) {
        core->OnMessage(from, p);
      });
      auto_propose_.push_back(true);
    }
  }

  void StartAll() {
    for (auto& core : cores_) core->Start();
  }

  uint32_t n_;
  sim::Simulator sim_;
  net::SimNetwork net_;
  crypto::KeyDirectory keys_;
  std::vector<std::unique_ptr<DagCore>> cores_;
  std::vector<bool> auto_propose_;
  std::map<ReplicaId, std::vector<std::pair<Round, ReplicaId>>> commit_log_;
  std::map<ReplicaId, std::vector<Round>> leader_commits_;
};

TEST(DagCoreTest, LeaderRoundRobinOnOddRounds) {
  DagHarness h(4);
  DagCore& core = *h.cores_[0];
  EXPECT_EQ(core.LeaderOf(1), 0u);
  EXPECT_EQ(core.LeaderOf(3), 1u);
  EXPECT_EQ(core.LeaderOf(5), 2u);
  EXPECT_EQ(core.LeaderOf(7), 3u);
  EXPECT_EQ(core.LeaderOf(9), 0u);
  EXPECT_EQ(core.LeaderOf(2), DagCore::kNoLeader);
  EXPECT_EQ(core.LeaderOf(4), DagCore::kNoLeader);
}

TEST(DagCoreTest, RoundsAdvanceAndCommit) {
  DagHarness h(4);
  h.StartAll();
  h.sim_.RunUntil(Seconds(2));
  // All replicas should have advanced well past round 10.
  for (auto& core : h.cores_) {
    EXPECT_GT(core->highest_proposed_round(), 10u);
    EXPECT_GT(core->last_committed_leader_round(), 5u);
    EXPECT_GT(core->committed_block_count(), 20u);
  }
}

TEST(DagCoreTest, CommitSequencesIdenticalAcrossReplicas) {
  DagHarness h(4);
  h.StartAll();
  h.sim_.RunUntil(Seconds(2));
  // Compare the common prefix of every replica's commit log.
  size_t min_len = ~size_t{0};
  for (auto& [id, log] : h.commit_log_) min_len = std::min(min_len, log.size());
  ASSERT_GT(min_len, 10u);
  for (ReplicaId id = 1; id < 4; ++id) {
    for (size_t i = 0; i < min_len; ++i) {
      EXPECT_EQ(h.commit_log_[0][i], h.commit_log_[id][i])
          << "replica " << id << " diverged at commit " << i;
    }
  }
}

TEST(DagCoreTest, LeaderCommitsInIncreasingOrder) {
  DagHarness h(4);
  h.StartAll();
  h.sim_.RunUntil(Seconds(2));
  for (auto& [id, leaders] : h.leader_commits_) {
    for (size_t i = 1; i < leaders.size(); ++i) {
      EXPECT_LT(leaders[i - 1], leaders[i]) << "replica " << id;
    }
    // Leaders are odd rounds.
    for (Round r : leaders) EXPECT_EQ(r % 2, 1u);
  }
}

TEST(DagCoreTest, WeakLeaderCommitsInsideALaterLeadersHistory) {
  // A leader that fewer than f+1 next-round blocks cite never commits
  // directly. It commits only through the ancestor test, when a later
  // leader that does commit directly has it in its causal history, and
  // then just before that leader. The network delays in this run leave
  // some leaders that weak; each must still commit on every replica, at
  // the same place in the same sequence.
  DagHarness h(4);
  h.StartAll();
  h.sim_.RunUntil(Seconds(3));
  const DagCore& core = *h.cores_[0];
  uint32_t weak_leaders = 0;
  for (Round r : h.leader_commits_[0]) {
    const BlockPtr leader = core.GetBlock(r, core.LeaderOf(r));
    ASSERT_NE(leader, nullptr) << "round " << r;
    uint32_t support = 0;
    for (ReplicaId p = 0; p < 4; ++p) {
      const BlockPtr child = core.GetBlock(r + 1, p);
      if (child == nullptr) continue;
      for (const Certificate& cert : child->parent_certs) {
        support += cert.block_digest == leader->Digest();
      }
    }
    weak_leaders += support < 2;  // f + 1 at n = 4.
  }
  EXPECT_GT(weak_leaders, 0u);
  for (ReplicaId id = 1; id < 4; ++id) {
    const std::vector<Round>& leaders = h.leader_commits_[id];
    const size_t common =
        std::min(leaders.size(), h.leader_commits_[0].size());
    ASSERT_GT(common, 10u);
    for (size_t i = 0; i < common; ++i) {
      ASSERT_EQ(leaders[i], h.leader_commits_[0][i])
          << "replica " << id << " diverged at leader " << i;
    }
    const std::vector<std::pair<Round, ReplicaId>>& log = h.commit_log_[id];
    const size_t blocks = std::min(log.size(), h.commit_log_[0].size());
    for (size_t i = 0; i < blocks; ++i) {
      ASSERT_EQ(log[i], h.commit_log_[0][i])
          << "replica " << id << " diverged at commit " << i;
    }
  }
}

TEST(DagCoreTest, ProgressWithOneCrashedReplica) {
  DagHarness h(4);
  h.auto_propose_[3] = false;  // Replica 3 never proposes.
  h.net_.Crash(3);
  h.StartAll();
  h.sim_.RunUntil(Seconds(3));
  for (ReplicaId id = 0; id < 3; ++id) {
    EXPECT_GT(h.cores_[id]->highest_proposed_round(), 8u) << "replica " << id;
    EXPECT_GT(h.leader_commits_[id].size(), 2u) << "replica " << id;
  }
  // The crashed replica's leader rounds (7, 15, ...) are skipped, yet later
  // leaders commit.
  for (Round r : h.leader_commits_[0]) {
    EXPECT_NE(h.cores_[0]->LeaderOf(r), 3u);
  }
}

TEST(DagCoreTest, CensoredReplicaSyncsBlocksViaRequest) {
  DagHarness h(4);
  // Replica 1 censors replica 0: its proposals never reach 0 directly.
  h.net_.SetLink(1, 0, false);
  h.StartAll();
  h.sim_.RunUntil(Seconds(3));
  // Replica 0 must still commit the same sequence (fetching replica 1's
  // blocks from peers), though possibly lagging.
  size_t min_len =
      std::min(h.commit_log_[0].size(), h.commit_log_[2].size());
  ASSERT_GT(min_len, 5u);
  for (size_t i = 0; i < min_len; ++i) {
    EXPECT_EQ(h.commit_log_[0][i], h.commit_log_[2][i]);
  }
  // Replica 1's blocks do appear in replica 0's committed history.
  bool saw_replica1 = false;
  for (size_t i = 0; i < min_len; ++i) {
    if (h.commit_log_[0][i].second == 1) saw_replica1 = true;
  }
  EXPECT_TRUE(saw_replica1);
}

TEST(DagCoreTest, ProposeValidation) {
  DagHarness h(4);
  h.auto_propose_[0] = false;
  h.StartAll();
  DagCore& core = *h.cores_[0];
  // Round 2 is not ready yet.
  EXPECT_FALSE(core.Propose(2, std::make_shared<TestContent>(1)).ok());
  EXPECT_TRUE(core.Propose(1, std::make_shared<TestContent>(1)).ok());
  // Double-proposing the same round fails.
  EXPECT_FALSE(core.Propose(1, std::make_shared<TestContent>(2)).ok());
}

TEST(DagCoreTest, EpochResetStartsFreshDag) {
  DagHarness h(4);
  h.StartAll();
  h.sim_.RunUntil(Seconds(1));
  ASSERT_GT(h.cores_[0]->highest_proposed_round(), 2u);
  for (auto& core : h.cores_) core->ResetForNewEpoch(1);
  for (auto& core : h.cores_) {
    EXPECT_EQ(core->epoch(), 1u);
    // Auto-propose fires for round 1 of the new DAG immediately.
    EXPECT_LE(core->highest_proposed_round(), 1u);
    EXPECT_EQ(core->last_committed_leader_round(), 0u);
  }
  size_t commits_before = h.commit_log_[0].size();
  h.sim_.RunUntil(h.sim_.Now() + Seconds(2));
  // The new DAG makes progress.
  EXPECT_GT(h.commit_log_[0].size(), commits_before + 5);
}

TEST(DagCoreTest, GarbageCollectionKeepsCommitsAndDropsOldRounds) {
  // One seeded run without GC, one collecting eight rounds under every
  // committed leader (ThunderboltNode's depth). This harness commits a
  // lagging replica's blocks at most 6 rounds under their leader, so the
  // collection never cuts history: the commit logs must match, rounds below
  // each watermark must be gone, and every round from it up intact.
  DagHarness plain(4);
  DagHarness gc(4, /*seed=*/5, /*gc_depth=*/8);
  plain.StartAll();
  gc.StartAll();
  plain.sim_.RunUntil(Seconds(3));
  gc.sim_.RunUntil(Seconds(3));
  for (ReplicaId id = 0; id < 4; ++id) {
    ASSERT_GT(gc.commit_log_[id].size(), 50u);
    EXPECT_EQ(plain.commit_log_[id], gc.commit_log_[id]) << "replica " << id;

    const DagCore& full = *plain.cores_[id];
    const DagCore& core = *gc.cores_[id];
    const Round watermark = core.gc_watermark();
    EXPECT_EQ(watermark, core.last_committed_leader_round() - 8);
    EXPECT_GT(watermark, 100u);
    EXPECT_EQ(core.ignored_below_gc(), 0u);
    for (Round r = 1; r < watermark; ++r) {
      EXPECT_EQ(core.CertificateCount(r), 0u) << "round " << r;
      for (ReplicaId p = 0; p < 4; ++p) {
        EXPECT_EQ(core.GetBlock(r, p), nullptr) << "round " << r;
        const BlockPtr collected = full.GetBlock(r, p);
        if (collected) {
          EXPECT_EQ(core.GetBlockByDigest(collected->Digest()), nullptr);
        }
      }
    }
    Round top = 0;
    for (ReplicaId p = 0; p < 4; ++p) {
      top = std::max(top, full.LatestBlockRoundFrom(p));
    }
    size_t retained = 0;
    for (Round r = watermark; r <= top; ++r) {
      EXPECT_EQ(core.CertificateCount(r), full.CertificateCount(r));
      for (ReplicaId p = 0; p < 4; ++p) {
        const BlockPtr kept = core.GetBlock(r, p);
        const BlockPtr reference = full.GetBlock(r, p);
        ASSERT_EQ(kept == nullptr, reference == nullptr) << "round " << r;
        if (kept == nullptr) continue;
        EXPECT_EQ(kept->Digest(), reference->Digest());
        EXPECT_EQ(core.HasCertificate(r, p), full.HasCertificate(r, p));
        ++retained;
      }
    }
    EXPECT_EQ(core.retained_block_count(), retained);
  }
}

TEST(DagCoreTest, ShallowGarbageCollectionCutsTheSameHistoryEverywhere) {
  // Two rounds under each committed leader is shallower than this run's
  // commit lag, so lagging blocks fall below the watermark before a leader
  // reaches them and are never committed (as under Narwhal's GC). The
  // watermark follows the committed sequence, so every replica cuts the
  // same blocks: the logs still agree, and each cut is counted.
  DagHarness plain(4);
  DagHarness gc(4, /*seed=*/5, /*gc_depth=*/2);
  plain.StartAll();
  gc.StartAll();
  plain.sim_.RunUntil(Seconds(3));
  gc.sim_.RunUntil(Seconds(3));
  EXPECT_LT(gc.commit_log_[0].size(), plain.commit_log_[0].size());
  for (ReplicaId id = 0; id < 4; ++id) {
    EXPECT_GT(gc.cores_[id]->ignored_below_gc(), 0u) << "replica " << id;
  }
  for (ReplicaId id = 1; id < 4; ++id) {
    const size_t common =
        std::min(gc.commit_log_[0].size(), gc.commit_log_[id].size());
    ASSERT_GT(common, 1000u);
    for (size_t i = 0; i < common; ++i) {
      ASSERT_EQ(gc.commit_log_[0][i], gc.commit_log_[id][i])
          << "replica " << id << " diverged at commit " << i;
    }
  }
}

TEST(BlockTest, DigestCoversAllFields) {
  auto make = [](EpochId epoch, Round round, ReplicaId proposer,
                 uint64_t tag) {
    Block b;
    b.epoch = epoch;
    b.round = round;
    b.proposer = proposer;
    b.content = std::make_shared<TestContent>(tag);
    return b;
  };
  Hash256 d1 = make(1, 2, 3, 9).Digest();
  EXPECT_EQ(make(1, 2, 3, 9).Digest(), d1);       // Deterministic.
  EXPECT_NE(make(1, 3, 3, 9).Digest(), d1);       // Round.
  EXPECT_NE(make(2, 2, 3, 9).Digest(), d1);       // Epoch.
  EXPECT_NE(make(1, 2, 0, 9).Digest(), d1);       // Proposer.
  EXPECT_NE(make(1, 2, 3, 10).Digest(), d1);      // Content.

  Block with_parent = make(1, 2, 3, 9);
  with_parent.parent_certs.emplace_back().block_digest = Sha256::Digest("p");
  const Hash256 d2 = with_parent.Digest();
  EXPECT_NE(d2, d1);                               // Parent count.
  Block other_parent = with_parent;
  other_parent.parent_certs[0].block_digest = Sha256::Digest("q");
  EXPECT_NE(other_parent.Digest(), d2);            // Parent digest.
}

TEST(BlockTest, CopyDropsDigestCache) {
  Block a;
  a.round = 2;
  a.content = std::make_shared<TestContent>(9);
  Hash256 d1 = a.Digest();  // Populates a's cache.
  Block b = a;              // Copy must not inherit the cache.
  b.round = 3;
  EXPECT_NE(b.Digest(), d1);
  Block c;
  c = a;
  c.proposer = 7;
  EXPECT_NE(c.Digest(), d1);
}

}  // namespace
}  // namespace thunderbolt::dag
