// Pluggable placement subsystem: policy-driven account -> shard mapping.
//
// Thunderbolt classifies transactions as single- vs cross-shard purely from
// their account arguments (paper section 3.1), so *where* accounts live is
// the single biggest lever on cross-shard traffic. This module makes that
// decision a first-class, swappable policy instead of a hard-coded hash:
//
//   hash       Sha256(account) % num_shards — the historical default,
//              byte-identical to the mapping txn::ShardMapper always used.
//   range      Ordered account-prefix ranges: shard i holds the accounts
//              between split points i-1 and i ("splits=g;p" puts [..,"g")
//              on shard 0, ["g","p") on shard 1, ["p",..) on shard 2).
//   directory  An explicit account -> shard dictionary with a hash
//              fallback for unlisted accounts, and the only built-in
//              that supports hot-key migration: Rebalance consults remote-
//              access counters and deterministically re-homes the top-K
//              hottest remote-accessed accounts.
//   locality   Workload-hinted: accounts are first folded onto a locality
//              group (e.g. TPC-C "w3.d5.c12" -> "w3") by the workload's
//              PlacementHint, then the group is hashed — so entities that
//              transact together land on the same shard.
//
// Policies register by name in PlacementRegistry::Global()
// (common/registry.h), which is how core::Cluster and the bench
// drivers select one from a `--placement <name>` flag without compile-time
// coupling. Every policy must be deterministic: all replicas construct the
// same policy from the same configuration and must agree on every lookup,
// which Fingerprint() lets tests and peers assert cheaply.
#ifndef THUNDERBOLT_PLACEMENT_PLACEMENT_H_
#define THUNDERBOLT_PLACEMENT_PLACEMENT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/registry.h"
#include "common/status.h"
#include "common/types.h"

namespace thunderbolt::placement {

/// Maps an account to the locality group it should co-locate with (the
/// "locality" policy hashes the group instead of the account). Supplied by
/// the workload — see workload::Workload::PlacementHint.
using AccountGroupFn = std::function<std::string(const std::string&)>;

/// Everything a policy factory may consume. Fields a policy does not
/// understand are ignored (e.g. `hint` by "hash").
struct PlacementOptions {
  uint32_t num_shards = 1;
  /// Policy-specific "key=value[,key=value...]" parameters:
  ///   range:     splits=<s1>;<s2>;...   (sorted, at most num_shards - 1)
  ///   directory: top_k=<n>              (hot keys migrated per Rebalance)
  ///              max_entries=<n>        (dictionary bound; LRU eviction)
  ///              assign=<acct>:<shard>;<acct>:<shard>;...
  /// Unknown keys or malformed values abort — placement is cluster
  /// configuration, and a typo must not silently place every account.
  std::string params;
  /// Optional workload locality hint (see AccountGroupFn).
  AccountGroupFn hint;
};

/// One hot-key migration performed by Rebalance.
struct MigrationEvent {
  std::string account;
  ShardId from = 0;
  ShardId to = 0;
  /// Remote accesses observed for the account in the closing epoch.
  uint64_t remote_accesses = 0;
  /// The epoch the migration takes effect in (filled by the cluster).
  EpochId epoch = 0;
};

/// Per-shard remote-access counters. The cluster records, for every
/// committed cross-shard transaction, each account the transaction reached
/// *outside* its home shard — keyed by the accessing (home) shard, so
/// Rebalance can move a hot account toward the shard that pulls on it
/// hardest. Aggregation is order-independent: any insertion order yields
/// the same HottestRemote() ranking.
///
/// Internally synchronized: the tracker lives in the cluster's shared
/// state, and with the thread executor pool commit-path bookkeeping can
/// run concurrently with stats queries; every method locks `mu_`.
class AccessTracker {
 public:
  /// Account was accessed by a transaction homed at `home_shard` while
  /// living in a different shard.
  void RecordRemoteAccess(const std::string& account, ShardId home_shard);

  struct AccountStats {
    std::string account;
    uint64_t total = 0;
    /// Accesses by home shard, ascending shard id.
    std::vector<std::pair<ShardId, uint64_t>> by_shard;
  };

  /// The `top_k` hottest remote-accessed accounts, sorted by total
  /// accesses descending with ties broken by account name — deterministic
  /// regardless of recording order.
  std::vector<AccountStats> HottestRemote(size_t top_k) const;

  uint64_t total_remote_accesses() const;
  bool empty() const;
  void Clear();

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::unordered_map<ShardId, uint64_t>>
      counts_;
  uint64_t total_ = 0;
};

/// Abstract account -> shard placement. Implementations must be total
/// (every account maps to a shard < num_shards), stable (same account,
/// same answer, until Rebalance) and replica-deterministic.
class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  /// Registry name ("hash", "range", "directory", "locality").
  virtual std::string name() const = 0;

  virtual uint32_t num_shards() const = 0;

  virtual ShardId ShardOfAccount(const std::string& account) const = 0;

  /// Hot-key migration hook, invoked by the cluster at reconfiguration
  /// boundaries (the only point where the epoch fences in-flight
  /// transactions). Policies that support migration re-home hot accounts
  /// and return the moves; the default is a no-op. Must be deterministic
  /// in `stats` — every replica applies the same migration.
  virtual std::vector<MigrationEvent> Rebalance(const AccessTracker& stats) {
    (void)stats;
    return {};
  }

  /// True when Rebalance reads the AccessTracker it is given. The cluster
  /// records remote accesses only for such a policy: for any other, the
  /// counters would be a map nothing reads.
  virtual bool ConsumesAccessTracker() const { return false; }

  /// Deterministic digest of the policy's full mapping state. Two replicas
  /// with equal fingerprints agree on every account's shard; changes after
  /// every Rebalance that moved an account.
  virtual uint64_t Fingerprint() const = 0;

  /// Monotone counter bumped on every mutation of the mapping (Assign,
  /// Rebalance migrations, evictions). Lets lookup caches — e.g. the
  /// account -> shard memo in txn::ShardMapper — detect staleness with one
  /// compare instead of re-resolving every account.
  uint64_t generation() const { return generation_; }

 protected:
  /// Mutating policies call this whenever any account's mapping changes.
  void BumpGeneration() { ++generation_; }

 private:
  uint64_t generation_ = 0;
};

// --- Built-ins --------------------------------------------------------------

/// Sha256(account) % num_shards — byte-identical to the historical
/// txn::ShardMapper behavior.
class HashPlacement final : public PlacementPolicy {
 public:
  explicit HashPlacement(uint32_t num_shards);

  std::string name() const override { return "hash"; }
  uint32_t num_shards() const override { return num_shards_; }
  ShardId ShardOfAccount(const std::string& account) const override;
  uint64_t Fingerprint() const override;

 private:
  uint32_t num_shards_;
};

/// Ordered account ranges delimited by `splits` (sorted, at most
/// num_shards - 1 entries): an account maps to the index of the first
/// split greater than it. With fewer splits than shards the trailing
/// shards simply receive no accounts.
class RangePlacement final : public PlacementPolicy {
 public:
  RangePlacement(uint32_t num_shards, std::vector<std::string> splits);

  /// Evenly partitions the two-byte prefix space — a total, balanced
  /// default when no workload-specific splits are configured.
  static std::vector<std::string> DefaultSplits(uint32_t num_shards);

  std::string name() const override { return "range"; }
  uint32_t num_shards() const override { return num_shards_; }
  ShardId ShardOfAccount(const std::string& account) const override;
  uint64_t Fingerprint() const override;

  const std::vector<std::string>& splits() const { return splits_; }

 private:
  uint32_t num_shards_;
  std::vector<std::string> splits_;
};

/// Explicit account -> shard dictionary with a hash fallback, the policy
/// behind hot-key migration. Replicas compare the exact mapping through
/// Fingerprint().
///
/// The dictionary is bounded: it holds at most `max_entries` pins, and
/// when a migration (or Assign) would exceed the bound the least-recently
/// migrated pins are evicted back to the hash fallback — so long runs with
/// churning hot sets cannot grow it without limit. Eviction is
/// deterministic (strict LRU over migration order, which all replicas
/// apply identically) and reported as MigrationEvents by Rebalance.
class DirectoryPlacement final : public PlacementPolicy {
 public:
  static constexpr uint32_t kDefaultTopK = 8;
  static constexpr uint32_t kDefaultMaxEntries = 4096;

  explicit DirectoryPlacement(uint32_t num_shards,
                              uint32_t top_k = kDefaultTopK,
                              uint32_t max_entries = kDefaultMaxEntries);

  std::string name() const override { return "directory"; }
  uint32_t num_shards() const override { return num_shards_; }
  ShardId ShardOfAccount(const std::string& account) const override;

  /// Deterministically re-homes up to top_k hottest remote-accessed
  /// accounts to the shard that accessed them most (ties: lowest shard
  /// id). Accounts already living in their hottest accessor's shard are
  /// left in place and do not consume a migration slot.
  std::vector<MigrationEvent> Rebalance(const AccessTracker& stats) override;
  bool ConsumesAccessTracker() const override { return true; }

  uint64_t Fingerprint() const override;

  /// Pins `account` to `shard` (clamped to num_shards).
  void Assign(const std::string& account, ShardId shard);

  size_t directory_size() const { return directory_.size(); }
  uint32_t top_k() const { return top_k_; }
  uint32_t max_entries() const { return max_entries_; }

 private:
  struct Pin {
    ShardId shard = 0;
    /// Migration-recency stamp (monotone counter): smallest = least
    /// recently migrated = first evicted at the bound.
    uint64_t touch = 0;
  };

  /// Pins `account`, stamps its recency, and evicts past the bound.
  /// Eviction events (pins falling back to hash) append to `events` when
  /// given and actually change the account's shard.
  void PinAccount(const std::string& account, ShardId shard,
                  std::vector<MigrationEvent>* events);

  uint32_t num_shards_;
  uint32_t top_k_;
  uint32_t max_entries_;
  uint64_t touch_counter_ = 0;
  /// Ordered so serialization and Fingerprint never depend on insertion
  /// order.
  std::map<std::string, Pin> directory_;
};

/// Workload-hinted placement: hashes the account's locality group instead
/// of the account itself, so entities the workload says transact together
/// (TPC-C districts/customers with their home warehouse, SmallBank payment
/// pairs) co-locate. Without a hint it degenerates to "hash".
class LocalityPlacement final : public PlacementPolicy {
 public:
  LocalityPlacement(uint32_t num_shards, AccountGroupFn hint);

  std::string name() const override { return "locality"; }
  uint32_t num_shards() const override { return num_shards_; }
  ShardId ShardOfAccount(const std::string& account) const override;
  /// The hint is workload code shared by all replicas, so configuration
  /// (name + shard count) identifies the mapping.
  uint64_t Fingerprint() const override;

 private:
  uint32_t num_shards_;
  AccountGroupFn hint_;
};

/// Name -> factory registry (common/registry.h). `Global()` is preloaded
/// with the four built-ins. Malformed `options.params` abort in Create
/// (configuration error); CheckPlacementParams finds them without aborting.
class PlacementRegistry
    : public FactoryRegistry<PlacementPolicy, const PlacementOptions&> {
 public:
  /// The process-wide registry, preloaded with the built-ins.
  static PlacementRegistry& Global();
};

/// Checks `options.params` for the built-in policy `name` without building
/// it: OK, or InvalidArgument with the reason. The built-in factories parse
/// by the same rules and abort where this returns an error. With
/// `options.num_shards` 0 (not known yet, as in a driver that sweeps it)
/// the bounds that depend on the shard count, range's split count and
/// directory's assign shards, are left to the factory. Any other name
/// passes: its own factory checks.
Status CheckPlacementParams(const std::string& name,
                            const PlacementOptions& options);

}  // namespace thunderbolt::placement

#endif  // THUNDERBOLT_PLACEMENT_PLACEMENT_H_
