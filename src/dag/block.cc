#include "dag/block.h"

namespace thunderbolt::dag {

Status Certificate::Validate(const crypto::KeyDirectory& dir,
                             uint32_t n) const {
  // No signature covers `proposer`, so a relayed copy of a genuine
  // certificate can name any replica; one naming none is rejected here.
  if (proposer >= n) return Status::Corruption("unknown proposer");
  if (qc.digest != block_digest) {
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
  h.UpdateInt<uint32_t>(static_cast<uint32_t>(parents.size()));
  for (const Hash256& p : parents) {
    h.Update(p.bytes.data(), p.bytes.size());
  }
  Hash256 content_digest = content ? content->ContentDigest() : Hash256{};
  h.Update(content_digest.bytes.data(), content_digest.bytes.size());
  digest_cache_ = h.Finalize();
  digest_cached_ = true;
  return digest_cache_;
}

}  // namespace thunderbolt::dag
