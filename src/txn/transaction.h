// Transaction and operation model (paper section 3.1, "Data model").
//
// A transaction invokes a named contract function with arguments. Contract
// code is Turing-complete: the exact set of <Read, K> / <Write, K, V>
// operations it performs is unknowable before execution. What *is* visible
// up front are the account arguments, which determine the shards involved
// (every key carries a predefined shard id, SID) — this is how Thunderbolt
// distinguishes Single-shard TXs from Cross-shard TXs without knowing
// read/write sets.
#ifndef THUNDERBOLT_TXN_TRANSACTION_H_
#define THUNDERBOLT_TXN_TRANSACTION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/types.h"
#include "placement/placement.h"
#include "storage/kv_store.h"

namespace thunderbolt::txn {

using storage::Key;
using storage::Value;

enum class OpType : uint8_t { kRead = 0, kWrite = 1 };

/// One storage access performed during execution. For reads, `value` is the
/// value observed; for writes, the value written.
struct Operation {
  OpType type;
  Key key;
  Value value;

  friend bool operator==(const Operation& a, const Operation& b) {
    return a.type == b.type && a.key == b.key && a.value == b.value;
  }
};

/// The read set (key -> value observed) and write set (key -> final value)
/// produced by executing a transaction. Declared in preplay blocks and
/// re-checked during validation.
struct ReadWriteSet {
  std::vector<Operation> reads;
  std::vector<Operation> writes;

  void Clear() {
    reads.clear();
    writes.clear();
  }

  /// Returns true if the two sets touch a common key with at least one
  /// write (the standard conflict predicate).
  bool ConflictsWith(const ReadWriteSet& other) const;

  /// All distinct keys written.
  std::vector<Key> WrittenKeys() const;
};

/// A client transaction.
struct Transaction {
  TxnId id = 0;

  /// Name of the contract function to invoke (resolved against the
  /// contract::Registry) — e.g. "smallbank.send_payment".
  std::string contract;

  /// Account (entity) arguments. Shard placement is derived from these.
  std::vector<std::string> accounts;

  /// Numeric arguments (amounts etc.).
  std::vector<Value> params;

  /// Virtual time at which the client submitted the transaction; used for
  /// end-to-end latency accounting. Under the open-loop service front end
  /// this is the ARRIVAL time (stamped when the arrival process generated
  /// the transaction); in closed-loop runs it equals admit_time.
  SimTime submit_time = 0;

  /// Virtual time at which a proposer pulled the transaction into a batch
  /// (== dequeue from the admission queue in open-loop runs). The gap
  /// submit_time -> admit_time is the admission-queue wait.
  SimTime admit_time = 0;

  Hash256 Digest() const;
};

/// Maps keys/accounts to shards by delegating to a placement::
/// PlacementPolicy. Shard ids are predefined and known to all replicas
/// (paper section 3.1). A key belongs to the shard of its account prefix
/// (the part before '/'), so all keys of one account co-locate.
class ShardMapper {
 public:
  /// Hash placement over `num_shards` — the historical default, byte-
  /// identical to the mapping this class always used.
  explicit ShardMapper(uint32_t num_shards);

  /// Delegates to `policy`. The policy is shared, not copied: the cluster
  /// may mutate it at reconfiguration boundaries (hot-key migration) and
  /// lookups observe the current mapping.
  explicit ShardMapper(std::shared_ptr<const placement::PlacementPolicy> policy);

  uint32_t num_shards() const { return policy_->num_shards(); }
  const placement::PlacementPolicy& policy() const { return *policy_; }

  /// Classification is the hot path (policy lookup + workload bucket
  /// rebuilds resolve every account, and the hash policy pays a Sha256
  /// per resolve), so resolved shards are memoized per mapper. The memo
  /// keys on the policy's generation counter: a hot-key migration bumps
  /// it and the next lookup drops the stale cache, preserving the
  /// mutation-visibility contract of the shared policy object.
  ShardId ShardOfAccount(const std::string& account) const {
    if (policy_->generation() != cache_generation_) {
      shard_cache_.clear();
      cache_generation_ = policy_->generation();
    }
    auto it = shard_cache_.find(account);
    if (it != shard_cache_.end()) return it->second;
    const ShardId shard = policy_->ShardOfAccount(account);
    if (shard_cache_.size() >= kShardCacheMaxEntries) shard_cache_.clear();
    shard_cache_.emplace(account, shard);
    return shard;
  }
  ShardId ShardOfKey(const Key& key) const;

  /// The distinct shards a transaction's account arguments touch, sorted.
  std::vector<ShardId> ShardsOf(const Transaction& tx) const;

  /// True when all account arguments live in a single shard. Early-exits
  /// on the first account that maps elsewhere (the hot classification
  /// path: every pulled transaction goes through this check).
  bool IsSingleShard(const Transaction& tx) const {
    if (tx.accounts.size() <= 1) return true;
    const ShardId first = ShardOfAccount(tx.accounts.front());
    for (size_t i = 1; i < tx.accounts.size(); ++i) {
      if (ShardOfAccount(tx.accounts[i]) != first) return false;
    }
    return true;
  }

 private:
  /// Safety valve for unbounded account spaces: a full cache is dropped
  /// rather than grown (workload populations sit far below this).
  static constexpr size_t kShardCacheMaxEntries = 1 << 20;

  std::shared_ptr<const placement::PlacementPolicy> policy_;
  mutable std::unordered_map<std::string, ShardId> shard_cache_;
  mutable uint64_t cache_generation_ = 0;
};

/// Builds the storage keys for an account used across the code base.
/// SmallBank holds a checking and a savings balance per customer.
std::string CheckingKey(const std::string& account);
std::string SavingsKey(const std::string& account);

}  // namespace thunderbolt::txn

#endif  // THUNDERBOLT_TXN_TRANSACTION_H_
