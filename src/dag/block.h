// DAG vertices ("blocks"), certificates, and protocol messages.
//
// Following Narwhal/Tusk (paper section 2): each round-r block carries a
// payload and the certificates of at least 2f+1 round-(r-1) blocks; a block
// becomes *certified* once 2f+1 replicas sign its digest. Certified blocks
// are the vertices of the DAG. Thunderbolt payloads (preplay results,
// cross-shard transactions, Skip and Shift markers) are attached through
// the abstract BlockContent, keeping the consensus layer reusable.
#ifndef THUNDERBOLT_DAG_BLOCK_H_
#define THUNDERBOLT_DAG_BLOCK_H_

#include <memory>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "common/types.h"
#include "crypto/signature.h"
#include "net/network.h"

namespace thunderbolt::dag {

/// Abstract payload carried by a block. Implementations must provide a
/// deterministic content digest (bound into the block digest, hence into
/// votes and certificates).
class BlockContent {
 public:
  virtual ~BlockContent() = default;
  virtual Hash256 ContentDigest() const = 0;
  /// Approximate wire size of the payload (bandwidth model).
  virtual uint64_t SizeBytes() const { return 512; }
};

using BlockContentPtr = std::shared_ptr<const BlockContent>;

/// What a vote signs: the block digest bound to its slot (epoch, round,
/// proposer). A certificate's quorum covers the same digest, so a relayed
/// certificate cannot be renamed to another slot.
Hash256 VoteDigest(EpochId epoch, Round round, ReplicaId proposer,
                   const Hash256& block_digest);

/// A certificate: quorum of 2f+1 signatures over the vote digest of a
/// block.
struct Certificate {
  EpochId epoch = 0;
  Round round = 0;
  ReplicaId proposer = 0;
  Hash256 block_digest;
  crypto::QuorumCert qc;

  /// Checks that the quorum signs VoteDigest(epoch, round, proposer,
  /// block_digest) and is valid for `n` replicas.
  Status Validate(const crypto::KeyDirectory& dir, uint32_t n) const;
};

/// A DAG vertex. `parents` are the digests of certified round-(r-1) blocks;
/// the matching certificates travel inside the proposal so any receiver can
/// verify the causal references without extra round trips.
struct Block {
  EpochId epoch = 0;
  Round round = 1;
  ReplicaId proposer = 0;
  std::vector<Hash256> parents;
  std::vector<Certificate> parent_certs;
  BlockContentPtr content;

  Block() = default;
  /// Copies drop the digest cache so a mutated copy re-hashes correctly.
  Block(const Block& other)
      : epoch(other.epoch),
        round(other.round),
        proposer(other.proposer),
        parents(other.parents),
        parent_certs(other.parent_certs),
        content(other.content) {}
  Block& operator=(const Block& other) {
    if (this != &other) {
      epoch = other.epoch;
      round = other.round;
      proposer = other.proposer;
      parents = other.parents;
      parent_certs = other.parent_certs;
      content = other.content;
      digest_cached_ = false;
    }
    return *this;
  }

  /// Digest over (epoch, round, proposer, parents, content digest).
  /// Cached after the first call; blocks are immutable once proposed.
  Hash256 Digest() const;

 private:
  mutable Hash256 digest_cache_{};
  mutable bool digest_cached_ = false;
};

using BlockPtr = std::shared_ptr<const Block>;

// --- Protocol messages ------------------------------------------------------

struct BlockProposalMsg final : public net::Payload {
  BlockPtr block;

  uint64_t SizeBytes() const override {
    if (!block) return 256;
    uint64_t size = 128 + 96 * block->parent_certs.size();
    if (block->content) size += block->content->SizeBytes();
    return size;
  }
};

struct BlockVoteMsg final : public net::Payload {
  EpochId epoch = 0;
  Round round = 0;
  Hash256 block_digest;
  crypto::Signature signature;
};

struct CertificateMsg final : public net::Payload {
  Certificate certificate;
};

struct BlockRequestMsg final : public net::Payload {
  EpochId epoch = 0;
  Hash256 block_digest;
};

struct BlockResponseMsg final : public net::Payload {
  BlockPtr block;

  uint64_t SizeBytes() const override {
    if (!block) return 256;
    uint64_t size = 128 + 96 * block->parent_certs.size();
    if (block->content) size += block->content->SizeBytes();
    return size;
  }
};

}  // namespace thunderbolt::dag

#endif  // THUNDERBOLT_DAG_BLOCK_H_
