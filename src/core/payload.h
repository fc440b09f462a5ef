// Thunderbolt block payloads (the BlockContent carried by DAG vertices).
//
// A shard proposer's block carries up to three sections:
//   - preplayed single-shard transactions with their CE outcomes
//     (read/write sets, results, scheduled order) — the EOV path;
//   - raw cross-shard transactions, submitted to the DAG without
//     execution (rule P1) — the OE path;
//   - a marker making the block a Skip block (section 5.4) or a Shift
//     block (section 6).
#ifndef THUNDERBOLT_CORE_PAYLOAD_H_
#define THUNDERBOLT_CORE_PAYLOAD_H_

#include <optional>
#include <vector>

#include "common/hash.h"
#include "common/types.h"
#include "dag/block.h"
#include "txn/transaction.h"

namespace thunderbolt::core {

/// A single-shard transaction together with its preplay outcome. Blocks
/// list these in the CE's scheduled (serialization) order.
struct PreplayedTxn {
  txn::Transaction tx;
  txn::ReadWriteSet rw_set;
  std::vector<storage::Value> emitted;
};

enum class PayloadKind : uint8_t {
  kNormal = 0,  // Preplayed single-shard txs and/or cross-shard txs.
  kSkip = 1,    // Preplay paused awaiting cross-shard finalization (5.4).
  kShift = 2,   // Reconfiguration vote (section 6).
};

class AccountIdTable;

class ThunderboltPayload final : public dag::BlockContent {
 public:
  ThunderboltPayload() = default;
  /// Copies drop the caches (digest, size, account ids) and the commit
  /// results, so a mutated copy recomputes them.
  ThunderboltPayload(const ThunderboltPayload& other)
      : kind(other.kind),
        shard(other.shard),
        preplayed(other.preplayed),
        cross_shard(other.cross_shard) {}
  ThunderboltPayload& operator=(const ThunderboltPayload& other) {
    if (this != &other) {
      kind = other.kind;
      shard = other.shard;
      preplayed = other.preplayed;
      cross_shard = other.cross_shard;
      digest_cached_ = false;
      size_cache_ = 0;
      cross_ids_.clear();
      cross_ids_table_ = nullptr;
      validation.reset();
      cross_execution.reset();
    }
    return *this;
  }

  PayloadKind kind = PayloadKind::kNormal;
  /// The shard this proposer owned when creating the block.
  ShardId shard = 0;
  /// EOV section: preplayed single-shard transactions in scheduled order.
  std::vector<PreplayedTxn> preplayed;
  /// OE section: cross-shard transactions awaiting total ordering.
  std::vector<txn::Transaction> cross_shard;

  /// Commit results. Every replica commits the identical sequence and
  /// receives this one payload object, so the first replica to commit the
  /// block fills them and the others read them (simulator thread only).
  /// They live as long as some replica still holds the block.
  struct Validation {
    bool valid = true;
    SimTime cost = 0;  // Virtual validation time.
  };
  /// Set once a block with a preplayed section commits.
  mutable std::optional<Validation> validation;
  struct CrossExecution {
    SimTime duration = 0;  // Virtual execution time.
    uint64_t remote_accesses = 0;
  };
  /// Set on a committed leader whose sub-DAG carried cross-shard
  /// transactions: the execution of all of them, in commit order.
  mutable std::optional<CrossExecution> cross_execution;

  /// Cached after the first call; payloads are immutable once proposed.
  Hash256 ContentDigest() const override;

  /// Approximate wire size, used by the simulated network's bandwidth and
  /// processing cost models. Cached like the digest: the network asks once
  /// per receiver.
  uint64_t SizeBytes() const override;

  /// The OE section's account ids in `table`, flattened in order: the ids
  /// of cross_shard[i] follow those of cross_shard[0..i-1], one per entry
  /// of its `accounts`. Interned on the first call per table and cached
  /// like the digest, so every replica of a cluster shares one
  /// computation per block (the P4 index, pending_cross_index.h). Built on
  /// the simulator thread only.
  const std::vector<uint32_t>& CrossAccountIds(AccountIdTable* table) const;

 private:
  mutable Hash256 digest_cache_{};
  mutable bool digest_cached_ = false;
  mutable uint64_t size_cache_ = 0;  // 0 until computed (the header is 64).
  mutable std::vector<uint32_t> cross_ids_;
  mutable const AccountIdTable* cross_ids_table_ = nullptr;
};

}  // namespace thunderbolt::core

#endif  // THUNDERBOLT_CORE_PAYLOAD_H_
