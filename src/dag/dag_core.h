// DagCore: per-replica Tusk consensus state machine (paper section 2).
//
// Responsibilities:
//   - Proposing one block per round, linking 2f+1 certificates of the
//     previous round.
//   - Voting on other replicas' proposals (one vote per proposer-round),
//     assembling quorum certificates, and broadcasting them.
//   - Advancing rounds once 2f+1 certificates of the current round arrive.
//   - The Tusk commit rule: the leader of odd round r (round-robin) commits
//     once f+1 round-(r+1) blocks reference its certificate; undecided
//     earlier leaders commit first when they appear in the newly committed
//     leader's causal history. Each committed leader deterministically
//     linearizes its uncommitted causal history.
//   - Block synchronization for missing causal ancestors.
//
// DagCore is payload-agnostic: the owner (core::ThunderboltNode) supplies
// content when a round becomes proposable and consumes committed sub-DAGs.
// Reconfiguration (paper section 6) resets the machine into a fresh epoch.
#ifndef THUNDERBOLT_DAG_DAG_CORE_H_
#define THUNDERBOLT_DAG_DAG_CORE_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "crypto/signature.h"
#include "dag/block.h"
#include "net/network.h"

namespace thunderbolt::dag {

/// A committed leader together with its linearized causal history (the
/// leader block is last). Delivered exactly once per leader, in increasing
/// leader-round order.
struct CommittedSubDag {
  EpochId epoch = 0;
  Round leader_round = 0;
  BlockPtr leader;
  std::vector<BlockPtr> blocks;  // Deterministic order; includes leader.
};

struct DagConfig {
  uint32_t n = 4;
  ReplicaId id = 0;
  EpochId epoch = 0;
};

class DagCore {
 public:
  /// Fired when `round` becomes proposable (2f+1 certificates of round-1
  /// collected, or immediately for round 1). The owner responds by calling
  /// Propose(round, content) once its payload is ready.
  using RoundReadyCallback = std::function<void(Round round)>;
  /// Fired on every newly stored block (own and remote), before commit.
  using BlockReceivedCallback = std::function<void(const BlockPtr&)>;
  /// Fired for every committed leader, in order.
  using CommitCallback = std::function<void(const CommittedSubDag&)>;

  DagCore(DagConfig config, const crypto::KeyDirectory* keys,
          net::SimNetwork* network);

  DagCore(const DagCore&) = delete;
  DagCore& operator=(const DagCore&) = delete;

  void SetRoundReadyCallback(RoundReadyCallback cb) {
    on_round_ready_ = std::move(cb);
  }
  void SetBlockReceivedCallback(BlockReceivedCallback cb) {
    on_block_received_ = std::move(cb);
  }
  void SetCommitCallback(CommitCallback cb) { on_commit_ = std::move(cb); }

  /// Starts the machine: announces round 1 as proposable.
  void Start();

  /// Proposes this replica's block for `round` with the given content.
  /// `round` must be proposable and not yet proposed by us.
  Status Propose(Round round, BlockContentPtr content);

  /// Network ingress; wire this to SimNetwork::RegisterHandler.
  void OnMessage(ReplicaId from, const net::PayloadPtr& payload);

  /// Leader of an odd round under round-robin rotation; kNoLeader for even
  /// rounds.
  ReplicaId LeaderOf(Round round) const;
  static constexpr ReplicaId kNoLeader = ~ReplicaId{0};

  /// Resets into a new epoch (non-blocking reconfiguration): clears all
  /// per-epoch state and announces round 1 of the new epoch.
  void ResetForNewEpoch(EpochId epoch);

  // --- Introspection --------------------------------------------------------

  EpochId epoch() const { return config_.epoch; }
  /// Highest round this replica has proposed in the current epoch.
  Round highest_proposed_round() const { return highest_proposed_; }
  /// Highest proposable round announced so far.
  Round highest_ready_round() const { return highest_ready_; }
  Round last_committed_leader_round() const {
    return last_committed_leader_round_;
  }
  /// Blocks stored for (round, proposer); nullptr when absent.
  BlockPtr GetBlock(Round round, ReplicaId proposer) const;
  BlockPtr GetBlockByDigest(const Hash256& digest) const;
  bool HasCertificate(Round round, ReplicaId proposer) const;
  uint32_t CertificateCount(Round round) const;
  /// Round of the latest block received from `proposer` (0 when none);
  /// drives the reconfiguration silence detector (paper section 6 cond. 1).
  Round LatestBlockRoundFrom(ReplicaId proposer) const;
  uint64_t committed_block_count() const { return committed_block_count_; }

 private:
  struct RoundState {
    std::map<ReplicaId, BlockPtr> blocks;            // By proposer.
    std::map<ReplicaId, Certificate> certificates;   // By proposer.
    bool ready_announced = false;
  };

  void HandleProposal(ReplicaId from, const BlockProposalMsg& msg);
  void HandleVote(ReplicaId from, const BlockVoteMsg& msg);
  void HandleCertificate(ReplicaId from, const CertificateMsg& msg);
  void HandleBlockRequest(ReplicaId from, const BlockRequestMsg& msg);
  void HandleBlockResponse(ReplicaId from, const BlockResponseMsg& msg);

  Status ValidateBlock(const Block& block) const;
  void StoreBlock(const BlockPtr& block);
  void StoreCertificate(const Certificate& cert);
  void MaybeAnnounceRounds();
  void TryCommitLeaders();
  /// True when every causal ancestor of `digest` is stored locally;
  /// requests any missing ancestors otherwise.
  bool HaveCausalHistory(const Hash256& digest);
  void CommitLeader(const BlockPtr& leader);
  void RequestBlock(const Hash256& digest);

  DagConfig config_;
  const crypto::KeyDirectory* keys_;
  net::SimNetwork* network_;

  std::map<Round, RoundState> rounds_;
  std::unordered_map<Hash256, BlockPtr> blocks_by_digest_;
  /// Votes collected for our own proposals: round -> signatures.
  std::map<Round, std::vector<crypto::Signature>> vote_collect_;
  std::map<Round, bool> cert_formed_;
  /// (round, proposer) pairs we already voted for (equivocation guard).
  std::set<std::pair<Round, ReplicaId>> voted_;
  std::set<Hash256> committed_blocks_;
  std::vector<Round> latest_block_round_;  // Indexed by proposer.
  /// Messages from epoch+1 buffered across the reconfiguration boundary.
  std::vector<std::pair<ReplicaId, net::PayloadPtr>> next_epoch_buffer_;
  static constexpr size_t kMaxEpochBuffer = 100000;

  Round highest_proposed_ = 0;
  Round highest_ready_ = 0;
  Round last_committed_leader_round_ = 0;
  uint64_t committed_block_count_ = 0;

  RoundReadyCallback on_round_ready_;
  BlockReceivedCallback on_block_received_;
  CommitCallback on_commit_;
};

}  // namespace thunderbolt::dag

#endif  // THUNDERBOLT_DAG_DAG_CORE_H_
