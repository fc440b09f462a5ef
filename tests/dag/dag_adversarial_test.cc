// Adversarial-input tests for DagCore: equivocation, forged certificates,
// malformed blocks, stale epochs, and message replay. The DAG must ignore
// all of them without compromising safety or liveness.
#include <gtest/gtest.h>

#include <set>

#include "common/simulator.h"
#include "dag/dag_core.h"

namespace thunderbolt::dag {
namespace {

struct TestContent final : public BlockContent {
  explicit TestContent(uint64_t v) : value(v) {}
  uint64_t value;
  Hash256 ContentDigest() const override {
    Sha256 h;
    h.UpdateInt(value);
    return h.Finalize();
  }
};

class AdversarialTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kN = 4;

  AdversarialTest()
      : net_(&sim_, kN, net::LatencyModel::Lan(), 7),
        keys_(crypto::KeyDirectory::Create(kN, 7)) {
    for (ReplicaId id = 0; id < kN; ++id) {
      DagConfig cfg;
      cfg.n = kN;
      cfg.id = id;
      cores_.push_back(std::make_unique<DagCore>(cfg, &keys_, &net_));
      DagCore* core = cores_.back().get();
      core->SetRoundReadyCallback([core, id](Round r) {
        core->Propose(r, std::make_shared<TestContent>(id * 100 + r));
      });
      core->SetCommitCallback([this, id](const CommittedSubDag& sub) {
        commits_[id] += sub.blocks.size();
      });
      net_.RegisterHandler(id, [core](ReplicaId from,
                                      const net::PayloadPtr& p) {
        core->OnMessage(from, p);
      });
    }
  }

  void StartAll() {
    for (auto& c : cores_) c->Start();
  }

  BlockPtr MakeForgedBlock(ReplicaId proposer, Round round, uint64_t tag) {
    auto block = std::make_shared<Block>();
    block->epoch = 0;
    block->round = round;
    block->proposer = proposer;
    block->content = std::make_shared<TestContent>(tag);
    return block;
  }

  sim::Simulator sim_;
  net::SimNetwork net_;
  crypto::KeyDirectory keys_;
  std::vector<std::unique_ptr<DagCore>> cores_;
  std::map<ReplicaId, uint64_t> commits_;
};

TEST_F(AdversarialTest, EquivocationOnlyFirstBlockAccepted) {
  StartAll();
  sim_.RunUntil(Millis(50));  // Round 1 proposals land.
  BlockPtr stored = cores_[1]->GetBlock(1, 0);
  ASSERT_TRUE(stored != nullptr);

  // Replica 0 equivocates: a second, different round-1 block.
  auto msg = std::make_shared<BlockProposalMsg>();
  msg->block = MakeForgedBlock(0, 1, 9999);
  net_.Send(0, 1, msg);
  sim_.RunUntil(Millis(100));

  // Replica 1 still holds the original block for (round 1, proposer 0).
  BlockPtr after = cores_[1]->GetBlock(1, 0);
  ASSERT_TRUE(after != nullptr);
  EXPECT_EQ(after->Digest(), stored->Digest());
}

TEST_F(AdversarialTest, RelayedProposalFromWrongSenderIgnored) {
  StartAll();
  sim_.RunUntil(Millis(50));
  // Replica 2 relays a forged block claiming to be from replica 3 for a
  // future round; the receiver must ignore proposals not sent by their
  // proposer.
  auto msg = std::make_shared<BlockProposalMsg>();
  msg->block = MakeForgedBlock(3, 5, 1234);
  net_.Send(2, 1, msg);
  sim_.RunUntil(Millis(100));
  BlockPtr stored = cores_[1]->GetBlock(5, 3);
  if (stored) {
    // If round 5 legitimately arrived by now it must not be the forgery.
    EXPECT_NE(stored->content ? dynamic_cast<const TestContent*>(
                                    stored->content.get())
                                    ->value
                              : 0,
              1234u);
  }
}

TEST_F(AdversarialTest, ForgedCertificateRejected) {
  StartAll();
  sim_.RunUntil(Millis(50));
  // A certificate with bogus signatures for a forged block.
  BlockPtr forged = MakeForgedBlock(2, 1, 777);
  Certificate cert;
  cert.epoch = 0;
  cert.round = 1;
  cert.proposer = 2;
  cert.block_digest = forged->Digest();
  cert.qc.digest = forged->Digest();
  for (ReplicaId s = 0; s < 3; ++s) {
    crypto::Signature sig = keys_.key(s).Sign(forged->Digest());
    sig.mac.bytes[0] ^= 0x5a;  // Corrupt.
    cert.qc.signatures.push_back(sig);
  }
  auto msg = std::make_shared<CertificateMsg>();
  msg->certificate = cert;
  net_.Send(2, 1, msg);
  sim_.RunUntil(Millis(100));
  // Replica 1 has a certificate for (1, 2) from the honest run, but it
  // must certify the honest block, not the forged one.
  BlockPtr honest = cores_[1]->GetBlock(1, 2);
  ASSERT_TRUE(honest != nullptr);
  EXPECT_NE(honest->Digest(), forged->Digest());
}

TEST_F(AdversarialTest, ParentCertificateFromUnknownProposerRejected) {
  StartAll();
  sim_.RunUntil(Millis(200));
  BlockPtr honest = cores_[1]->GetBlock(2, 0);
  ASSERT_TRUE(honest != nullptr);
  // A round-2 block whose first parent certificate names proposer kN,
  // which does not exist; the certificate's quorum signatures are genuine.
  auto forged = std::make_shared<Block>(*honest);
  forged->content = std::make_shared<TestContent>(31337);
  forged->parent_certs.front().proposer = kN;
  auto msg = std::make_shared<BlockResponseMsg>();
  msg->block = forged;
  cores_[1]->OnMessage(2, msg);
  EXPECT_EQ(cores_[1]->GetBlockByDigest(forged->Digest()), nullptr);
}

TEST_F(AdversarialTest, CertificateFromUnknownProposerIgnored) {
  // Replica 3 relays every genuine certificate it receives to all replicas
  // with the proposer field, which no signature covers, set to kN. Stored,
  // such a certificate would enter the next round's parents, and every
  // replica would reject the block that carries it.
  DagCore* relay = cores_[3].get();
  net_.RegisterHandler(3, [this, relay](ReplicaId from,
                                        const net::PayloadPtr& p) {
    auto* msg = dynamic_cast<const CertificateMsg*>(p.get());
    if (msg != nullptr && msg->certificate.proposer < kN) {
      auto forged = std::make_shared<CertificateMsg>(*msg);
      forged->certificate.proposer = kN;
      net_.Broadcast(3, forged);
    }
    relay->OnMessage(from, p);
  });
  StartAll();
  sim_.RunUntil(Millis(1000));
  for (ReplicaId id = 0; id < kN; ++id) {
    const DagCore& core = *cores_[id];
    uint64_t stored = 0;
    for (Round r = 1; r <= core.highest_ready_round(); ++r) {
      stored += core.HasCertificate(r, kN);
    }
    EXPECT_EQ(stored, 0u) << "replica " << id;
    EXPECT_GT(core.last_committed_leader_round(), 10u) << "replica " << id;
  }
}

TEST_F(AdversarialTest, RenamedCertificatesIgnored) {
  // Replica 3 relays every certificate it receives from another replica to
  // all replicas, renamed to the next replica (proposer + 1 mod n), a name
  // that passes every range check. Stored under the wrong slot, such a
  // certificate shadows that slot's genuine one, and blocks then cite one
  // digest as two parents.
  DagCore* relay = cores_[3].get();
  net_.RegisterHandler(3, [this, relay](ReplicaId from,
                                        const net::PayloadPtr& p) {
    auto* msg = dynamic_cast<const CertificateMsg*>(p.get());
    if (msg != nullptr && from != 3) {
      auto renamed = std::make_shared<CertificateMsg>(*msg);
      renamed->certificate.proposer = (msg->certificate.proposer + 1) % kN;
      net_.Broadcast(3, renamed);
    }
    relay->OnMessage(from, p);
  });
  StartAll();
  sim_.RunUntil(Millis(1000));
  for (ReplicaId id = 0; id < kN; ++id) {
    const DagCore& core = *cores_[id];
    uint64_t blocks = 0;
    uint64_t repeated_parent = 0;   // One digest cited as two parents.
    uint64_t misnamed_parent = 0;   // Certificate names another proposer.
    for (Round r = 2; r <= core.highest_ready_round(); ++r) {
      for (ReplicaId proposer = 0; proposer < kN; ++proposer) {
        const BlockPtr block = core.GetBlock(r, proposer);
        if (block == nullptr) continue;
        ++blocks;
        std::set<Hash256> distinct;
        for (const Certificate& cert : block->parent_certs) {
          distinct.insert(cert.block_digest);
        }
        repeated_parent += distinct.size() != block->parent_certs.size();
        for (const Certificate& cert : block->parent_certs) {
          const BlockPtr parent = core.GetBlockByDigest(cert.block_digest);
          misnamed_parent +=
              parent != nullptr && parent->proposer != cert.proposer;
        }
      }
    }
    EXPECT_GT(blocks, 0u) << "replica " << id;
    EXPECT_EQ(repeated_parent, 0u) << "replica " << id;
    EXPECT_EQ(misnamed_parent, 0u) << "replica " << id;
    EXPECT_GT(core.last_committed_leader_round(), 10u) << "replica " << id;
  }
}

TEST_F(AdversarialTest, ForgedParentDigestOnCertifiedSlotRejected) {
  StartAll();
  sim_.RunUntil(Millis(200));
  BlockPtr honest = cores_[1]->GetBlock(2, 0);
  ASSERT_TRUE(honest != nullptr);
  // The first parent keeps its slot (round 1, proposer), which replica 1
  // has a certificate for, but cites a fabricated digest. Its quorum names
  // the fabricated block's vote digest, so only the corrupted signatures
  // give it away. Stored, the block would send every walk through its
  // history after a digest no replica can deliver.
  auto forged = std::make_shared<Block>(*honest);
  forged->content = std::make_shared<TestContent>(4711);
  Certificate& cert = forged->parent_certs.front();
  ASSERT_TRUE(cores_[1]->HasCertificate(cert.round, cert.proposer));
  const Hash256 fabricated = Sha256::Digest("no such block");
  cert.block_digest = fabricated;
  cert.qc.digest = VoteDigest(cert.epoch, cert.round, cert.proposer,
                              fabricated);
  for (crypto::Signature& sig : cert.qc.signatures) sig.mac.bytes[0] ^= 0x5a;
  auto msg = std::make_shared<BlockResponseMsg>();
  msg->block = forged;
  cores_[1]->OnMessage(2, msg);
  EXPECT_EQ(cores_[1]->GetBlockByDigest(forged->Digest()), nullptr);
}

TEST_F(AdversarialTest, WrongEpochMessagesIgnored) {
  StartAll();
  sim_.RunUntil(Millis(50));
  auto block = std::make_shared<Block>();
  block->epoch = 5;  // Far future epoch (not epoch+1: dropped, not queued).
  block->round = 1;
  block->proposer = 2;
  block->content = std::make_shared<TestContent>(1);
  auto msg = std::make_shared<BlockProposalMsg>();
  msg->block = block;
  net_.Send(2, 1, msg);
  sim_.RunUntil(Millis(100));
  EXPECT_EQ(cores_[1]->epoch(), 0u);
  // Liveness unaffected.
  sim_.RunUntil(Seconds(1));
  EXPECT_GT(cores_[1]->last_committed_leader_round(), 0u);
}

TEST_F(AdversarialTest, DuplicateMessagesAreIdempotent) {
  StartAll();
  sim_.RunUntil(Millis(200));
  uint64_t commits_before = commits_[1];
  // Re-deliver replica 0's round-1 proposal several times.
  BlockPtr block = cores_[1]->GetBlock(1, 0);
  ASSERT_TRUE(block != nullptr);
  for (int i = 0; i < 5; ++i) {
    auto msg = std::make_shared<BlockProposalMsg>();
    msg->block = block;
    net_.Send(0, 1, msg);
  }
  sim_.RunUntil(Millis(300));
  // No double-commits: commit counts only ever grow by new sub-DAGs.
  sim_.RunUntil(Seconds(1));
  EXPECT_GE(commits_[1], commits_before);
  // And all replicas still agree.
  EXPECT_GT(cores_[1]->last_committed_leader_round(), 0u);
}

TEST_F(AdversarialTest, ReplayBelowGcWatermarkIgnored) {
  StartAll();
  sim_.RunUntil(Millis(500));
  DagCore& core = *cores_[1];
  // Round-1 traffic as it first arrived at replica 1: replica 0's
  // proposal, a vote for replica 1's own block, and a round-1 certificate
  // (carried by a round-2 block).
  const BlockPtr block = core.GetBlock(1, 0);
  const BlockPtr own = core.GetBlock(1, 1);
  const BlockPtr child = core.GetBlock(2, 0);
  ASSERT_TRUE(block && own && child);
  ASSERT_EQ(child->parent_certs.front().round, 1u);
  ASSERT_GT(core.last_committed_leader_round(), 5u);

  core.CollectGarbageBelow(core.last_committed_leader_round() - 2);
  ASSERT_GT(core.gc_watermark(), 2u);
  ASSERT_EQ(core.GetBlockByDigest(block->Digest()), nullptr);
  ASSERT_EQ(core.ignored_below_gc(), 0u);

  // Delivered synchronously, so any reply would be a new pending event.
  uint64_t received = 0;
  core.SetBlockReceivedCallback([&received](const BlockPtr&) { ++received; });
  const uint64_t pending = sim_.pending_events();

  auto proposal = std::make_shared<BlockProposalMsg>();
  proposal->block = block;
  core.OnMessage(0, proposal);
  EXPECT_EQ(core.ignored_below_gc(), 1u);

  auto vote = std::make_shared<BlockVoteMsg>();
  vote->round = 1;
  vote->block_digest = own->Digest();
  vote->signature = keys_.key(2).Sign(own->Digest());
  core.OnMessage(2, vote);
  EXPECT_EQ(core.ignored_below_gc(), 2u);

  auto cert = std::make_shared<CertificateMsg>();
  cert->certificate = child->parent_certs.front();
  core.OnMessage(3, cert);
  EXPECT_EQ(core.ignored_below_gc(), 3u);

  auto response = std::make_shared<BlockResponseMsg>();
  response->block = block;
  core.OnMessage(2, response);
  EXPECT_EQ(core.ignored_below_gc(), 4u);

  // A request for the collected digest goes unanswered.
  auto request = std::make_shared<BlockRequestMsg>();
  request->block_digest = block->Digest();
  core.OnMessage(3, request);
  EXPECT_EQ(core.ignored_below_gc(), 4u);  // Requests carry no round.

  EXPECT_EQ(received, 0u);  // The owner's receipt hooks never fire again.
  EXPECT_EQ(sim_.pending_events(), pending);  // No vote, no response.
  EXPECT_EQ(core.GetBlock(1, 0), nullptr);
  EXPECT_FALSE(core.HasCertificate(1, cert->certificate.proposer));
}

TEST_F(AdversarialTest, LivenessUnderAllAttacksCombined) {
  StartAll();
  for (int wave = 0; wave < 5; ++wave) {
    sim_.RunUntil(Millis(100 * (wave + 1)));
    auto msg = std::make_shared<BlockProposalMsg>();
    msg->block = MakeForgedBlock(3, wave + 1, 4242 + wave);
    net_.Send(2, 0, msg);  // Forgeries at the observer.
  }
  sim_.RunUntil(Seconds(2));
  for (ReplicaId id = 0; id < kN; ++id) {
    EXPECT_GT(cores_[id]->last_committed_leader_round(), 4u)
        << "replica " << id;
  }
}

}  // namespace
}  // namespace thunderbolt::dag
