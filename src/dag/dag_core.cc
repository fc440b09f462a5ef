#include "dag/dag_core.h"

#include <algorithm>
#include <cassert>

namespace thunderbolt::dag {

DagCore::DagCore(DagConfig config, const crypto::KeyDirectory* keys,
                 net::SimNetwork* network)
    : config_(config),
      keys_(keys),
      network_(network),
      latest_block_round_(config.n, 0),
      parent_seen_(config.n) {}

void DagCore::Start() {
  highest_ready_ = 1;
  if (on_round_ready_) on_round_ready_(1);
}

ReplicaId DagCore::LeaderOf(Round round) const {
  if (round % 2 == 0) return kNoLeader;
  return static_cast<ReplicaId>(((round - 1) / 2) % config_.n);
}

Status DagCore::Propose(Round round, BlockContentPtr content) {
  if (round <= highest_proposed_) {
    return Status::InvalidArgument("round already proposed");
  }
  if (round > highest_ready_) {
    return Status::InvalidArgument("round not proposable yet");
  }
  auto block = std::make_shared<Block>();
  block->epoch = config_.epoch;
  block->round = round;
  block->proposer = config_.id;
  block->content = std::move(content);
  if (round > 1) {
    const RoundState& prev = rounds_[round - 1];
    if (prev.certificates.size() < QuorumSize(config_.n)) {
      return Status::Internal("missing 2f+1 parent certificates");
    }
    block->parent_certs.reserve(prev.certificates.size());
    for (const auto& [proposer, cert] : prev.certificates) {
      block->parent_certs.push_back(cert);
    }
  }
  highest_proposed_ = round;

  auto msg = std::make_shared<BlockProposalMsg>();
  msg->block = block;
  network_->Broadcast(config_.id, msg);
  return Status::OK();
}

bool DagCore::DeferToNextEpoch(ReplicaId from, const net::PayloadPtr& payload,
                               EpochId epoch) {
  if (epoch != config_.epoch + 1 ||
      next_epoch_buffer_.size() >= kMaxEpochBuffer) {
    return false;
  }
  next_epoch_buffer_.emplace_back(from, payload);
  return true;
}

void DagCore::OnMessage(ReplicaId from, const net::PayloadPtr& payload) {
  // Replicas transition to a new DAG (epoch) at slightly different virtual
  // times; buffer messages from the immediately-next epoch and replay them
  // after ResetForNewEpoch so early proposals are not lost.
  const net::Payload* p = payload.get();
  if (auto* m = dynamic_cast<const BlockProposalMsg*>(p)) {
    const EpochId epoch = m->block ? m->block->epoch : ~EpochId{0};
    if (!DeferToNextEpoch(from, payload, epoch)) HandleProposal(from, *m);
  } else if (auto* m = dynamic_cast<const BlockVoteMsg*>(p)) {
    if (!DeferToNextEpoch(from, payload, m->epoch)) HandleVote(from, *m);
  } else if (auto* m = dynamic_cast<const CertificateMsg*>(p)) {
    if (!DeferToNextEpoch(from, payload, m->certificate.epoch)) {
      HandleCertificate(from, *m);
    }
  } else if (auto* m = dynamic_cast<const BlockRequestMsg*>(p)) {
    if (!DeferToNextEpoch(from, payload, m->epoch)) {
      HandleBlockRequest(from, *m);
    }
  } else if (auto* m = dynamic_cast<const BlockResponseMsg*>(p)) {
    const EpochId epoch = m->block ? m->block->epoch : ~EpochId{0};
    if (!DeferToNextEpoch(from, payload, epoch)) HandleBlockResponse(from, *m);
  }
}

Status DagCore::ValidateBlock(const Block& block) {
  if (block.epoch != config_.epoch) {
    return Status::InvalidArgument("wrong epoch");
  }
  if (block.proposer >= config_.n) {
    return Status::Corruption("unknown proposer");
  }
  if (block.round == 0) return Status::Corruption("round 0");
  if (block.round > 1) {
    if (block.parent_certs.size() < QuorumSize(config_.n)) {
      return Status::Corruption("fewer than 2f+1 parents");
    }
    parent_seen_.assign(config_.n, false);
    for (const Certificate& cert : block.parent_certs) {
      if (cert.round != block.round - 1 || cert.epoch != block.epoch) {
        return Status::Corruption("parent from wrong round/epoch");
      }
      if (cert.proposer >= config_.n) {
        return Status::Corruption("unknown parent proposer");
      }
      if (parent_seen_[cert.proposer]) {
        return Status::Corruption("duplicate parent proposer");
      }
      parent_seen_[cert.proposer] = true;
      // Quorum certificates are validated before StoreCertificate keeps
      // them, so a parent certificate naming the block its slot's stored
      // certificate names needs only the checks above; any other parent
      // certificate, a fabricated digest on a certified slot included, is
      // validated in full.
      const Certificate* stored = FindCertificate(cert.round, cert.proposer);
      if (stored == nullptr || stored->block_digest != cert.block_digest) {
        THUNDERBOLT_RETURN_NOT_OK(cert.Validate(*keys_, config_.n));
      }
    }
  } else if (!block.parent_certs.empty()) {
    return Status::Corruption("round-1 block with parents");
  }
  return Status::OK();
}

void DagCore::HandleProposal(ReplicaId from, const BlockProposalMsg& msg) {
  if (!msg.block) return;
  const Block& block = *msg.block;
  if (block.epoch != config_.epoch) return;  // Stale/future epoch.
  if (from != block.proposer) return;        // Relayed proposals not allowed.
  if (BelowWatermark(block.round)) return;
  if (!ValidateBlock(block).ok()) return;

  // One vote per (round, proposer): equivocation guard.
  std::vector<bool>& voted = rounds_[block.round].voted;
  if (voted.empty()) voted.resize(config_.n);
  if (voted[block.proposer]) {
    // Still store the block if it matches what we voted for (duplicate
    // delivery); conflicting blocks are ignored.
    auto existing = GetBlock(block.round, block.proposer);
    if (!existing) StoreBlock(msg.block);
    return;
  }
  voted[block.proposer] = true;

  // Adopt the parent certificates carried by the proposal.
  for (const Certificate& cert : block.parent_certs) {
    StoreCertificate(cert);
  }
  StoreBlock(msg.block);

  // Vote: sign the digest and reply to the proposer.
  auto vote = std::make_shared<BlockVoteMsg>();
  vote->epoch = block.epoch;
  vote->round = block.round;
  vote->block_digest = block.Digest();
  vote->signature = keys_->key(config_.id).Sign(
      VoteDigest(block.epoch, block.round, block.proposer,
                 vote->block_digest));
  network_->Send(config_.id, block.proposer, vote);
}

void DagCore::HandleVote(ReplicaId from, const BlockVoteMsg& msg) {
  if (msg.epoch != config_.epoch) return;
  if (BelowWatermark(msg.round)) return;
  auto round_it = rounds_.find(msg.round);
  if (round_it == rounds_.end()) return;  // No own block to vote for.
  RoundState& rs = round_it->second;
  if (rs.cert_formed) return;
  auto own = rs.blocks.find(config_.id);
  if (own == rs.blocks.end() || own->second->Digest() != msg.block_digest) {
    return;
  }
  const Hash256 signed_digest =
      VoteDigest(config_.epoch, msg.round, config_.id, msg.block_digest);
  if (!keys_->Verify(signed_digest, msg.signature)) return;
  if (msg.signature.signer != from) return;

  std::vector<crypto::Signature>& votes = rs.own_votes;
  for (const crypto::Signature& sig : votes) {
    if (sig.signer == from) return;  // Duplicate vote.
  }
  votes.push_back(msg.signature);
  if (votes.size() >= QuorumSize(config_.n)) {
    rs.cert_formed = true;
    Certificate cert;
    cert.epoch = config_.epoch;
    cert.round = msg.round;
    cert.proposer = config_.id;
    cert.block_digest = msg.block_digest;
    cert.qc.digest = signed_digest;
    cert.qc.signatures = votes;
    auto out = std::make_shared<CertificateMsg>();
    out->certificate = cert;
    network_->Broadcast(config_.id, out);
  }
}

void DagCore::HandleCertificate(ReplicaId from, const CertificateMsg& msg) {
  (void)from;
  const Certificate& cert = msg.certificate;
  if (cert.epoch != config_.epoch) return;
  if (BelowWatermark(cert.round)) return;
  if (HasCertificate(cert.round, cert.proposer)) return;
  if (!cert.Validate(*keys_, config_.n).ok()) return;
  StoreCertificate(cert);
}

void DagCore::HandleBlockRequest(ReplicaId from, const BlockRequestMsg& msg) {
  if (msg.epoch != config_.epoch) return;
  BlockPtr block = GetBlockByDigest(msg.block_digest);
  if (!block) return;
  auto out = std::make_shared<BlockResponseMsg>();
  out->block = block;
  network_->Send(config_.id, from, out);
}

void DagCore::HandleBlockResponse(ReplicaId from, const BlockResponseMsg& msg) {
  (void)from;
  if (!msg.block) return;
  const Block& block = *msg.block;
  if (block.epoch != config_.epoch) return;
  if (BelowWatermark(block.round)) return;
  if (blocks_by_digest_.count(block.Digest())) return;
  if (!ValidateBlock(block).ok()) return;
  for (const Certificate& cert : block.parent_certs) {
    StoreCertificate(cert);
  }
  StoreBlock(msg.block);
}

void DagCore::StoreBlock(const BlockPtr& block) {
  // A handler's own earlier step (a parent certificate completing a
  // commit) can raise the watermark past the block it is storing.
  if (BelowWatermark(block->round)) return;
  Hash256 digest = block->Digest();
  if (!blocks_by_digest_.try_emplace(digest, BlockRecord{block}).second) {
    return;
  }
  RoundState& rs = rounds_[block->round];
  rs.blocks.emplace(block->proposer, block);
  rs.digests.push_back(digest);
  latest_block_round_[block->proposer] =
      std::max(latest_block_round_[block->proposer], block->round);
  if (on_block_received_) on_block_received_(block);
  TryCommitLeaders();
}

void DagCore::StoreCertificate(const Certificate& cert) {
  // The parent certificates of a block at the watermark round lie below it.
  if (BelowWatermark(cert.round)) return;
  RoundState& rs = rounds_[cert.round];
  // try_emplace copies the certificate only when the key is new.
  if (!rs.certificates.try_emplace(cert.proposer, cert).second) return;
  // Fetch the certified block if we never received the proposal (e.g. a
  // censoring proposer excluded us from dissemination).
  if (!blocks_by_digest_.count(cert.block_digest)) {
    RequestBlock(cert.block_digest);
  }
  MaybeAnnounceRounds();
  TryCommitLeaders();
}

void DagCore::RequestBlock(const Hash256& digest) {
  auto msg = std::make_shared<BlockRequestMsg>();
  msg->epoch = config_.epoch;
  msg->block_digest = digest;
  network_->Broadcast(config_.id, msg);
}

void DagCore::MaybeAnnounceRounds() {
  // Round r+1 becomes proposable when round r has 2f+1 certificates,
  // including this replica's own (as in Narwhal): a proposer's round-r
  // block must be a causal ancestor of its round-(r+1) block, otherwise
  // commit linearization could order a proposer's blocks out of round
  // order and break preplay-chain validation.
  while (true) {
    Round current = highest_ready_;
    auto it = rounds_.find(current);
    if (it == rounds_.end()) return;
    if (it->second.certificates.size() < QuorumSize(config_.n)) return;
    if (!it->second.certificates.count(config_.id)) return;
    highest_ready_ = current + 1;
    if (on_round_ready_) on_round_ready_(highest_ready_);
  }
}

BlockPtr DagCore::GetBlock(Round round, ReplicaId proposer) const {
  auto it = rounds_.find(round);
  if (it == rounds_.end()) return nullptr;
  auto bit = it->second.blocks.find(proposer);
  return bit == it->second.blocks.end() ? nullptr : bit->second;
}

BlockPtr DagCore::GetBlockByDigest(const Hash256& digest) const {
  auto it = blocks_by_digest_.find(digest);
  return it == blocks_by_digest_.end() ? nullptr : it->second.block;
}

bool DagCore::HasCertificate(Round round, ReplicaId proposer) const {
  return FindCertificate(round, proposer) != nullptr;
}

const Certificate* DagCore::FindCertificate(Round round,
                                            ReplicaId proposer) const {
  auto it = rounds_.find(round);
  if (it == rounds_.end()) return nullptr;
  auto cit = it->second.certificates.find(proposer);
  return cit == it->second.certificates.end() ? nullptr : &cit->second;
}

uint32_t DagCore::CertificateCount(Round round) const {
  auto it = rounds_.find(round);
  if (it == rounds_.end()) return 0;
  return static_cast<uint32_t>(it->second.certificates.size());
}

Round DagCore::LatestBlockRoundFrom(ReplicaId proposer) const {
  return latest_block_round_[proposer];
}

template <typename Step>
bool DagCore::Walk(const Hash256& start, Step&& step) {
  assert(!walking_ && "DAG walks never nest");
  walking_ = true;
  ++walk_generation_;
  frontier_.clear();
  missing_.clear();
  Enqueue(start);
  bool stopped = false;
  for (size_t next = 0; next < frontier_.size(); ++next) {
    BlockRecord& record = *frontier_[next];
    const WalkStep what = step(record);
    if (what == WalkStep::kStop) {
      stopped = true;
      break;
    }
    if (what == WalkStep::kSkip) continue;
    const Block& block = *record.block;
    if (block.round <= gc_round_) {
      // The parents (round - 1) are below the watermark: collected, so the
      // walk neither requests nor collects them.
      ++ignored_below_gc_;
      continue;
    }
    for (const Certificate& parent : block.parent_certs) {
      Enqueue(parent.block_digest);
    }
  }
  walking_ = false;
  return stopped;
}

void DagCore::Enqueue(const Hash256& digest) {
  auto it = blocks_by_digest_.find(digest);
  if (it == blocks_by_digest_.end()) {
    if (std::find(missing_.begin(), missing_.end(), digest) ==
        missing_.end()) {
      missing_.push_back(digest);
    }
    return;
  }
  BlockRecord& record = it->second;
  if (record.walk_mark == walk_generation_) return;
  record.walk_mark = walk_generation_;
  frontier_.push_back(&record);
}

bool DagCore::HaveCausalHistory(const Hash256& digest) {
  // A committed block's history is complete already.
  Walk(digest, [](const BlockRecord& record) {
    return record.committed ? WalkStep::kSkip : WalkStep::kExpand;
  });
  for (const Hash256& missing : missing_) RequestBlock(missing);
  return missing_.empty();
}

void DagCore::TryCommitLeaders() {
  // Scan undecided odd rounds for direct commits (f+1 support in r+1).
  Round start = last_committed_leader_round_ == 0
                    ? 1
                    : last_committed_leader_round_ + 2;
  Round horizon = rounds_.empty() ? 0 : rounds_.rbegin()->first;
  for (Round r = start; r + 1 <= horizon; r += 2) {
    if (r <= last_committed_leader_round_) continue;
    ReplicaId leader_id = LeaderOf(r);
    BlockPtr leader = GetBlock(r, leader_id);
    if (!leader) continue;
    Hash256 leader_digest = leader->Digest();

    auto next_it = rounds_.find(r + 1);
    if (next_it == rounds_.end()) continue;
    uint32_t support = 0;
    for (const auto& [proposer, block] : next_it->second.blocks) {
      for (const Certificate& parent : block->parent_certs) {
        if (parent.block_digest == leader_digest) {
          ++support;
          break;
        }
      }
    }
    if (support < WeakQuorumSize(config_.n)) continue;
    if (!HaveCausalHistory(leader_digest)) continue;

    // Direct commit of leader r. First, sweep undecided earlier leaders
    // that appear in this leader's causal history (committed in round
    // order).
    std::vector<BlockPtr> chain{leader};
    BlockPtr cursor = leader;
    for (Round rr = r < 2 ? 0 : r - 2; rr > last_committed_leader_round_ &&
                                       rr >= 1;
         rr -= 2) {
      BlockPtr earlier = GetBlock(rr, LeaderOf(rr));
      if (earlier) {
        // Ancestor test: is `earlier` in `cursor`'s causal history? Blocks
        // at or below its round cannot lead to it.
        const Hash256 target = earlier->Digest();
        const Round floor = earlier->round;
        const bool is_ancestor =
            Walk(cursor->Digest(), [&target, floor](const BlockRecord& record) {
              if (record.block->Digest() == target) return WalkStep::kStop;
              return record.block->round <= floor ? WalkStep::kSkip
                                                  : WalkStep::kExpand;
            });
        if (is_ancestor) {
          chain.push_back(earlier);
          cursor = earlier;
        }
      }
      if (rr < 2) break;
    }
    std::reverse(chain.begin(), chain.end());
    for (const BlockPtr& l : chain) {
      CommitLeader(l);
    }
    last_committed_leader_round_ = r;
  }
}

void DagCore::CommitLeader(const BlockPtr& leader) {
  // Linearize the leader's uncommitted causal history deterministically:
  // ascending (round, proposer). The caller checked HaveCausalHistory, so
  // no digest is missing.
  std::vector<BlockPtr> history;
  Walk(leader->Digest(), [&history](BlockRecord& record) {
    if (record.committed) return WalkStep::kSkip;
    record.committed = true;
    history.push_back(record.block);
    return WalkStep::kExpand;
  });
  std::sort(history.begin(), history.end(),
            [](const BlockPtr& a, const BlockPtr& b) {
              if (a->round != b->round) return a->round < b->round;
              return a->proposer < b->proposer;
            });
  committed_block_count_ += history.size();

  CommittedSubDag sub_dag;
  sub_dag.epoch = config_.epoch;
  sub_dag.leader_round = leader->round;
  sub_dag.leader = leader;
  sub_dag.blocks = std::move(history);
  if (on_commit_) on_commit_(sub_dag);
}

bool DagCore::BelowWatermark(Round round) {
  if (round >= gc_round_) return false;
  ++ignored_below_gc_;
  return true;
}

void DagCore::CollectGarbageBelow(Round watermark) {
  if (watermark <= std::max<Round>(gc_round_, 1)) return;
  gc_round_ = watermark;
  // Everything below the previous watermark is gone already, so each range
  // below starts at its first uncollected round.
  const auto end = rounds_.lower_bound(watermark);
  for (auto it = rounds_.begin(); it != end; ++it) {
    for (const Hash256& digest : it->second.digests) {
      blocks_by_digest_.erase(digest);
    }
  }
  rounds_.erase(rounds_.begin(), end);
}

void DagCore::ResetForNewEpoch(EpochId epoch) {
  config_.epoch = epoch;
  rounds_.clear();
  blocks_by_digest_.clear();
  std::fill(latest_block_round_.begin(), latest_block_round_.end(), 0);
  highest_proposed_ = 0;
  highest_ready_ = 0;
  last_committed_leader_round_ = 0;
  gc_round_ = 0;
  Start();

  // Replay messages that arrived for this epoch before we switched.
  std::vector<std::pair<ReplicaId, net::PayloadPtr>> buffered;
  buffered.swap(next_epoch_buffer_);
  for (auto& [from, payload] : buffered) {
    OnMessage(from, payload);
  }
}

}  // namespace thunderbolt::dag
