// Simulated authenticated signatures and quorum certificates.
//
// The paper deploys ed25519-signed, authenticated point-to-point channels.
// Byte-level forgery resistance is irrelevant to the reproduced claims, so
// this module substitutes a deterministic keyed-MAC scheme over SHA-256:
// sign(sk, m) = SHA256(sk || m). Verification recomputes the MAC with the
// signer's secret, which the verifier looks up from a shared KeyDirectory
// — acceptable in a simulation where all replicas live in one process.
// What *is* preserved:
//   - signatures bind (signer, message); any mutation fails verification,
//   - quorum certificates require 2f + 1 distinct valid signers,
//   - verification cost can be charged to the virtual clock.
#ifndef THUNDERBOLT_CRYPTO_SIGNATURE_H_
#define THUNDERBOLT_CRYPTO_SIGNATURE_H_

#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "common/types.h"

namespace thunderbolt::crypto {

/// A signature over a message digest by one replica.
struct Signature {
  ReplicaId signer = 0;
  Hash256 mac;

  friend bool operator==(const Signature& a, const Signature& b) {
    return a.signer == b.signer && a.mac == b.mac;
  }
};

/// Per-replica signing key.
class KeyPair {
 public:
  KeyPair() = default;
  KeyPair(ReplicaId id, Hash256 secret) : id_(id), secret_(secret) {}

  /// Derives the replica's key deterministically from a cluster seed.
  static KeyPair Derive(uint64_t cluster_seed, ReplicaId id);

  ReplicaId id() const { return id_; }
  const Hash256& secret() const { return secret_; }

  /// Signs a message digest.
  Signature Sign(const Hash256& digest) const;

 private:
  ReplicaId id_ = 0;
  Hash256 secret_{};
};

/// Directory of all replicas' keys; acts as the "public key infrastructure"
/// of the simulated cluster.
class KeyDirectory {
 public:
  KeyDirectory() = default;

  /// Creates keys for replicas 0..n-1 from the given seed.
  static KeyDirectory Create(uint32_t n, uint64_t cluster_seed);

  uint32_t size() const { return static_cast<uint32_t>(keys_.size()); }

  const KeyPair& key(ReplicaId id) const { return keys_.at(id); }

  /// Verifies that `sig` is a valid signature by `sig.signer` over `digest`.
  bool Verify(const Hash256& digest, const Signature& sig) const;

 private:
  std::vector<KeyPair> keys_;
};

/// A quorum certificate: >= 2f+1 signatures from distinct replicas over the
/// same digest.
struct QuorumCert {
  Hash256 digest;
  std::vector<Signature> signatures;

  /// Checks distinct signers, quorum size for `n` replicas, and each
  /// signature's validity against `dir`.
  Status Validate(const KeyDirectory& dir, uint32_t n) const;

  bool Contains(ReplicaId id) const;
};

}  // namespace thunderbolt::crypto

#endif  // THUNDERBOLT_CRYPTO_SIGNATURE_H_
