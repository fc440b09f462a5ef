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
//
// Garbage collection (the Narwhal/Tusk rule) is the owner's call:
// CollectGarbageBelow(w) erases every round below the watermark w: its
// blocks (and with them their payloads, unless the owner holds them),
// certificates, votes and commit marks. From then on DagCore ignores any
// proposal, vote, certificate or block response of a round below w, drops
// the parent certificates (of round w-1) that a round-w block carries, and
// leaves requests for collected digests unanswered. A block of round w
// itself is still accepted, as Narwhal accepts a header at its GC round: a
// walk may need to fetch it, and refusing it would leave that walk waiting
// forever. Walks stop at the watermark: at a round-w block they neither
// request nor collect its parents. The watermark is a function of the
// committed sequence, so every replica cuts the same history there.
// Each message or certificate dropped this way and each stopped walk
// counts in ignored_below_gc(): it marks a place where the machine without
// GC would still have acted, so the owner picks a watermark deep enough
// below its commits that this does not happen (core::kDagGcDepth says how
// deep, and why that is safe). Block requests are the exception: they
// carry no round, so a request for a collected digest looks the same as
// one for a digest never stored, and it goes unanswered without being
// counted; a zero count says nothing about requests. Without a call,
// nothing is collected.
//
// DAG walks. HaveCausalHistory, the ancestor test in TryCommitLeaders and
// CommitLeader all run through Walk: one breadth-first pass from a block
// over its parent certificates' digests, in certificate order, queueing each
// digest at most once (a generation stamp on the block's record marks it).
// The caller decides, block by block, whether the walk expands a block's
// parents, skips them or stops. Digests with no stored block are collected
// in order of first reach, and HaveCausalHistory requests them in that
// order: each request draws from the network's RNG, so the order is part
// of a run's determinism. A walk runs no callback and sends nothing, so
// walks never nest: the frontier and the missing list are members, reused
// by every walk.
#ifndef THUNDERBOLT_DAG_DAG_CORE_H_
#define THUNDERBOLT_DAG_DAG_CORE_H_

#include <functional>
#include <map>
#include <memory>
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

  /// Erases all state of the rounds below `watermark` (see the file
  /// header). The watermark only rises: a call at or below the current one
  /// is a no-op, and so is one at round 1, below which nothing exists.
  /// Should stay at or below last_committed_leader_round(): a round above
  /// it may still hold a leader's uncommitted history.
  void CollectGarbageBelow(Round watermark);

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
  /// Blocks currently stored (equivocating duplicates included).
  size_t retained_block_count() const { return blocks_by_digest_.size(); }
  /// The GC watermark: every round below it is collected (0 before the
  /// first collection and after an epoch reset).
  Round gc_watermark() const { return gc_round_; }
  /// Messages ignored and walks stopped because they reached below the GC
  /// watermark, since construction. Unanswered block requests are not
  /// counted (see the file header).
  uint64_t ignored_below_gc() const { return ignored_below_gc_; }

 private:
  /// Everything this replica holds for one round: its blocks and
  /// certificates, the votes it cast and the votes its own block drew.
  struct RoundState {
    std::map<ReplicaId, BlockPtr> blocks;            // By proposer.
    std::map<ReplicaId, Certificate> certificates;   // By proposer.
    /// Every stored block of the round, including an equivocating
    /// proposer's second block that `blocks` has no slot for; GC erases
    /// these records from blocks_by_digest_.
    std::vector<Hash256> digests;
    /// Proposers whose round block this replica voted for (equivocation
    /// guard; indexed by proposer, empty until the first vote). A block
    /// stored from a BlockResponseMsg is not voted for.
    std::vector<bool> voted;
    /// Votes collected for this replica's own block of the round.
    std::vector<crypto::Signature> own_votes;
    /// Whether own_votes reached a quorum and the certificate went out.
    bool cert_formed = false;
  };

  /// One stored block and what this replica knows about it.
  struct BlockRecord {
    BlockPtr block;
    bool committed = false;
    /// Walk generation that last queued this block (see walk_generation_).
    uint64_t walk_mark = 0;
  };

  /// What a Walk does at a stored block.
  enum class WalkStep { kExpand, kSkip, kStop };

  /// Routes a message of epoch config_.epoch + 1 into next_epoch_buffer_
  /// (true) while the buffer has room; any other epoch returns false.
  bool DeferToNextEpoch(ReplicaId from, const net::PayloadPtr& payload,
                        EpochId epoch);
  void HandleProposal(ReplicaId from, const BlockProposalMsg& msg);
  void HandleVote(ReplicaId from, const BlockVoteMsg& msg);
  void HandleCertificate(ReplicaId from, const CertificateMsg& msg);
  void HandleBlockRequest(ReplicaId from, const BlockRequestMsg& msg);
  void HandleBlockResponse(ReplicaId from, const BlockResponseMsg& msg);

  Status ValidateBlock(const Block& block) const;
  /// The stored certificate for (round, proposer), or nullptr.
  const Certificate* FindCertificate(Round round, ReplicaId proposer) const;
  void StoreBlock(const BlockPtr& block);
  void StoreCertificate(const Certificate& cert);
  void MaybeAnnounceRounds();
  void TryCommitLeaders();
  /// True when every causal ancestor of `digest` is stored locally;
  /// requests any missing ancestors otherwise.
  bool HaveCausalHistory(const Hash256& digest);
  void CommitLeader(const BlockPtr& leader);
  void RequestBlock(const Hash256& digest);
  /// True, and counted in ignored_below_gc(), when `round` is below the GC
  /// watermark: whatever arrives for it is dropped.
  bool BelowWatermark(Round round);
  /// Breadth-first walk from `start` (see the file header). `step` is
  /// called once for each stored block the walk reaches, in order of first
  /// reach, and returns a WalkStep. kExpand queues the block's parents
  /// unless the block is at or below the GC watermark; that stop counts in
  /// ignored_below_gc(). Unstored digests end up in missing_. Returns true
  /// when `step` stopped the walk.
  template <typename Step>
  bool Walk(const Hash256& start, Step&& step);
  /// Queues `digest` for the current walk unless it was queued already.
  void Enqueue(const Hash256& digest);

  DagConfig config_;
  const crypto::KeyDirectory* keys_;
  net::SimNetwork* network_;

  std::map<Round, RoundState> rounds_;
  std::unordered_map<Hash256, BlockRecord> blocks_by_digest_;
  std::vector<Round> latest_block_round_;  // Indexed by proposer.
  /// Messages from epoch+1 buffered across the reconfiguration boundary.
  std::vector<std::pair<ReplicaId, net::PayloadPtr>> next_epoch_buffer_;
  static constexpr size_t kMaxEpochBuffer = 100000;

  /// Walk state. Records stay put while a walk runs: nothing is stored or
  /// collected until it returns.
  std::vector<BlockRecord*> frontier_;
  std::vector<Hash256> missing_;  // Unstored digests, in order of reach.
  /// Stamp of the current walk: a record whose walk_mark equals it is
  /// queued already.
  uint64_t walk_generation_ = 0;
  bool walking_ = false;  // Guards the no-nesting rule (asserted).

  Round highest_proposed_ = 0;
  Round highest_ready_ = 0;
  Round last_committed_leader_round_ = 0;
  uint64_t committed_block_count_ = 0;
  Round gc_round_ = 0;  // GC watermark; 0 or at least 2.
  uint64_t ignored_below_gc_ = 0;

  RoundReadyCallback on_round_ready_;
  BlockReceivedCallback on_block_received_;
  CommitCallback on_commit_;
};

}  // namespace thunderbolt::dag

#endif  // THUNDERBOLT_DAG_DAG_CORE_H_
