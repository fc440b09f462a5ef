#include "dag/block.h"

namespace thunderbolt::dag {

Hash256 VoteDigest(EpochId epoch, Round round, ReplicaId proposer,
                   const Hash256& block_digest) {
  Sha256 h;
  h.Update("thunderbolt-vote", 16);
  h.UpdateInt(epoch);
  h.UpdateInt(round);
  h.UpdateInt(proposer);
  h.Update(block_digest.bytes.data(), block_digest.bytes.size());
  return h.Finalize();
}

Status Certificate::Validate(const crypto::KeyDirectory& dir,
                             uint32_t n) const {
  if (proposer >= n) return Status::Corruption("unknown proposer");
  if (qc.digest != VoteDigest(epoch, round, proposer, block_digest)) {
    return Status::Corruption("certificate digest mismatch");
  }
  return qc.Validate(dir, n);
}

Hash256 Block::Digest() const {
  if (digest_cached_) return digest_cache_;
  Sha256 h;
  h.Update("thunderbolt-block", 17);
  h.UpdateInt(epoch);
  h.UpdateInt(round);
  h.UpdateInt(proposer);
  h.UpdateInt<uint32_t>(static_cast<uint32_t>(parent_certs.size()));
  for (const Certificate& parent : parent_certs) {
    h.Update(parent.block_digest.bytes.data(),
             parent.block_digest.bytes.size());
  }
  Hash256 content_digest = content ? content->ContentDigest() : Hash256{};
  h.Update(content_digest.bytes.data(), content_digest.bytes.size());
  digest_cache_ = h.Finalize();
  digest_cached_ = true;
  return digest_cache_;
}

}  // namespace thunderbolt::dag
