#include "dag/dag_core.h"

#include <algorithm>
#include <cassert>
#include <deque>

namespace thunderbolt::dag {

DagCore::DagCore(DagConfig config, const crypto::KeyDirectory* keys,
                 net::SimNetwork* network)
    : config_(config),
      keys_(keys),
      network_(network),
      latest_block_round_(config.n, 0) {}

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
    for (const auto& [proposer, cert] : prev.certificates) {
      block->parents.push_back(cert.block_digest);
      block->parent_certs.push_back(cert);
    }
  }
  highest_proposed_ = round;

  auto msg = std::make_shared<BlockProposalMsg>();
  msg->block = block;
  network_->Broadcast(config_.id, msg);
  return Status::OK();
}

namespace {

/// Extracts the epoch tag of any DAG message; ~0 for unknown payloads.
EpochId PayloadEpoch(const net::Payload& payload) {
  if (auto* p = dynamic_cast<const BlockProposalMsg*>(&payload)) {
    return p->block ? p->block->epoch : ~EpochId{0};
  }
  if (auto* v = dynamic_cast<const BlockVoteMsg*>(&payload)) return v->epoch;
  if (auto* c = dynamic_cast<const CertificateMsg*>(&payload)) {
    return c->certificate.epoch;
  }
  if (auto* rq = dynamic_cast<const BlockRequestMsg*>(&payload)) {
    return rq->epoch;
  }
  if (auto* rs = dynamic_cast<const BlockResponseMsg*>(&payload)) {
    return rs->block ? rs->block->epoch : ~EpochId{0};
  }
  return ~EpochId{0};
}

}  // namespace

void DagCore::OnMessage(ReplicaId from, const net::PayloadPtr& payload) {
  // Replicas transition to a new DAG (epoch) at slightly different virtual
  // times; buffer messages from the immediately-next epoch and replay them
  // after ResetForNewEpoch so early proposals are not lost.
  EpochId msg_epoch = PayloadEpoch(*payload);
  if (msg_epoch == config_.epoch + 1 &&
      next_epoch_buffer_.size() < kMaxEpochBuffer) {
    next_epoch_buffer_.emplace_back(from, payload);
    return;
  }
  if (auto* p = dynamic_cast<const BlockProposalMsg*>(payload.get())) {
    HandleProposal(from, *p);
  } else if (auto* v = dynamic_cast<const BlockVoteMsg*>(payload.get())) {
    HandleVote(from, *v);
  } else if (auto* c = dynamic_cast<const CertificateMsg*>(payload.get())) {
    HandleCertificate(from, *c);
  } else if (auto* rq = dynamic_cast<const BlockRequestMsg*>(payload.get())) {
    HandleBlockRequest(from, *rq);
  } else if (auto* rs = dynamic_cast<const BlockResponseMsg*>(payload.get())) {
    HandleBlockResponse(from, *rs);
  }
}

Status DagCore::ValidateBlock(const Block& block) const {
  if (block.epoch != config_.epoch) {
    return Status::InvalidArgument("wrong epoch");
  }
  if (block.proposer >= config_.n) {
    return Status::Corruption("unknown proposer");
  }
  if (block.round == 0) return Status::Corruption("round 0");
  if (block.round > 1) {
    if (block.parents.size() < QuorumSize(config_.n)) {
      return Status::Corruption("fewer than 2f+1 parents");
    }
    if (block.parent_certs.size() != block.parents.size()) {
      return Status::Corruption("parent/certificate count mismatch");
    }
    std::set<ReplicaId> parent_proposers;
    for (size_t i = 0; i < block.parents.size(); ++i) {
      const Certificate& cert = block.parent_certs[i];
      if (cert.block_digest != block.parents[i]) {
        return Status::Corruption("parent digest mismatch");
      }
      if (cert.round != block.round - 1 || cert.epoch != block.epoch) {
        return Status::Corruption("parent from wrong round/epoch");
      }
      if (!parent_proposers.insert(cert.proposer).second) {
        return Status::Corruption("duplicate parent proposer");
      }
      // Quorum certificates are validated once and cached in
      // StoreCertificate; structural checks suffice here for certs we have
      // already seen.
      if (!HasCertificate(cert.round, cert.proposer)) {
        THUNDERBOLT_RETURN_NOT_OK(cert.Validate(*keys_, config_.n));
      }
    }
  } else if (!block.parents.empty()) {
    return Status::Corruption("round-1 block with parents");
  }
  return Status::OK();
}

void DagCore::HandleProposal(ReplicaId from, const BlockProposalMsg& msg) {
  if (!msg.block) return;
  const Block& block = *msg.block;
  if (block.epoch != config_.epoch) return;  // Stale/future epoch.
  if (from != block.proposer) return;        // Relayed proposals not allowed.
  if (!ValidateBlock(block).ok()) return;

  // One vote per (round, proposer): equivocation guard.
  auto key = std::make_pair(block.round, block.proposer);
  const bool first_time = voted_.insert(key).second;
  if (!first_time) {
    // Still store the block if it matches what we voted for (duplicate
    // delivery); conflicting blocks are ignored.
    auto existing = GetBlock(block.round, block.proposer);
    if (!existing) StoreBlock(msg.block);
    return;
  }

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
  vote->signature = keys_->key(config_.id).Sign(vote->block_digest);
  network_->Send(config_.id, block.proposer, vote);
}

void DagCore::HandleVote(ReplicaId from, const BlockVoteMsg& msg) {
  if (msg.epoch != config_.epoch) return;
  if (cert_formed_[msg.round]) return;
  BlockPtr own = GetBlock(msg.round, config_.id);
  if (!own || own->Digest() != msg.block_digest) return;
  if (!keys_->Verify(msg.block_digest, msg.signature)) return;
  if (msg.signature.signer != from) return;

  std::vector<crypto::Signature>& votes = vote_collect_[msg.round];
  for (const crypto::Signature& sig : votes) {
    if (sig.signer == from) return;  // Duplicate vote.
  }
  votes.push_back(msg.signature);
  if (votes.size() >= QuorumSize(config_.n)) {
    cert_formed_[msg.round] = true;
    Certificate cert;
    cert.epoch = config_.epoch;
    cert.round = msg.round;
    cert.proposer = config_.id;
    cert.block_digest = msg.block_digest;
    cert.qc.digest = msg.block_digest;
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
  if (blocks_by_digest_.count(block.Digest())) return;
  if (!ValidateBlock(block).ok()) return;
  for (const Certificate& cert : block.parent_certs) {
    StoreCertificate(cert);
  }
  StoreBlock(msg.block);
}

void DagCore::StoreBlock(const BlockPtr& block) {
  Hash256 digest = block->Digest();
  if (!blocks_by_digest_.emplace(digest, block).second) return;
  RoundState& rs = rounds_[block->round];
  rs.blocks.emplace(block->proposer, block);
  latest_block_round_[block->proposer] =
      std::max(latest_block_round_[block->proposer], block->round);
  if (on_block_received_) on_block_received_(block);
  TryCommitLeaders();
}

void DagCore::StoreCertificate(const Certificate& cert) {
  RoundState& rs = rounds_[cert.round];
  if (!rs.certificates.emplace(cert.proposer, cert).second) return;
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
  return it == blocks_by_digest_.end() ? nullptr : it->second;
}

bool DagCore::HasCertificate(Round round, ReplicaId proposer) const {
  auto it = rounds_.find(round);
  if (it == rounds_.end()) return false;
  return it->second.certificates.count(proposer) > 0;
}

uint32_t DagCore::CertificateCount(Round round) const {
  auto it = rounds_.find(round);
  if (it == rounds_.end()) return 0;
  return static_cast<uint32_t>(it->second.certificates.size());
}

Round DagCore::LatestBlockRoundFrom(ReplicaId proposer) const {
  return latest_block_round_[proposer];
}

bool DagCore::HaveCausalHistory(const Hash256& digest) {
  bool complete = true;
  std::set<Hash256> visited;
  std::deque<Hash256> frontier{digest};
  while (!frontier.empty()) {
    Hash256 cur = frontier.front();
    frontier.pop_front();
    if (!visited.insert(cur).second) continue;
    if (committed_blocks_.count(cur)) continue;  // History already complete.
    auto it = blocks_by_digest_.find(cur);
    if (it == blocks_by_digest_.end()) {
      RequestBlock(cur);
      complete = false;
      continue;
    }
    for (const Hash256& parent : it->second->parents) {
      frontier.push_back(parent);
    }
  }
  return complete;
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
      for (const Hash256& parent : block->parents) {
        if (parent == leader_digest) {
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
        // Ancestor test: is `earlier` in `cursor`'s causal history?
        Hash256 target = earlier->Digest();
        bool is_ancestor = false;
        std::set<Hash256> visited;
        std::deque<Hash256> frontier{cursor->Digest()};
        while (!frontier.empty()) {
          Hash256 cur = frontier.front();
          frontier.pop_front();
          if (cur == target) {
            is_ancestor = true;
            break;
          }
          if (!visited.insert(cur).second) continue;
          auto bit = blocks_by_digest_.find(cur);
          if (bit == blocks_by_digest_.end()) continue;
          if (bit->second->round <= earlier->round) continue;
          for (const Hash256& parent : bit->second->parents) {
            frontier.push_back(parent);
          }
        }
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
  // ascending (round, proposer).
  std::vector<BlockPtr> history;
  std::set<Hash256> visited;
  std::deque<Hash256> frontier{leader->Digest()};
  while (!frontier.empty()) {
    Hash256 cur = frontier.front();
    frontier.pop_front();
    if (!visited.insert(cur).second) continue;
    if (committed_blocks_.count(cur)) continue;
    auto it = blocks_by_digest_.find(cur);
    if (it == blocks_by_digest_.end()) continue;  // Guarded by caller.
    history.push_back(it->second);
    for (const Hash256& parent : it->second->parents) {
      frontier.push_back(parent);
    }
  }
  std::sort(history.begin(), history.end(),
            [](const BlockPtr& a, const BlockPtr& b) {
              if (a->round != b->round) return a->round < b->round;
              return a->proposer < b->proposer;
            });
  for (const BlockPtr& b : history) {
    committed_blocks_.insert(b->Digest());
  }
  committed_block_count_ += history.size();

  CommittedSubDag sub_dag;
  sub_dag.epoch = config_.epoch;
  sub_dag.leader_round = leader->round;
  sub_dag.leader = leader;
  sub_dag.blocks = std::move(history);
  if (on_commit_) on_commit_(sub_dag);
}

void DagCore::ResetForNewEpoch(EpochId epoch) {
  config_.epoch = epoch;
  rounds_.clear();
  blocks_by_digest_.clear();
  vote_collect_.clear();
  cert_formed_.clear();
  voted_.clear();
  committed_blocks_.clear();
  std::fill(latest_block_round_.begin(), latest_block_round_.end(), 0);
  highest_proposed_ = 0;
  highest_ready_ = 0;
  last_committed_leader_round_ = 0;
  Start();

  // Replay messages that arrived for this epoch before we switched.
  std::vector<std::pair<ReplicaId, net::PayloadPtr>> buffered;
  buffered.swap(next_epoch_buffer_);
  for (auto& [from, payload] : buffered) {
    OnMessage(from, payload);
  }
}

}  // namespace thunderbolt::dag
