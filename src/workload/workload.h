// Pluggable workload framework.
//
// A Workload owns everything the benchmark driver and the cluster need to
// exercise an application: how to seed storage, how to draw the next
// transaction (globally or homed at a shard), and which consistency
// invariant the final state must satisfy. Every workload runs unchanged
// against every execution engine — the transactions it emits name contracts
// resolved through contract::Registry, so engines never see workload
// specifics.
//
// Workloads register by name in WorkloadRegistry (string -> factory over a
// shared WorkloadOptions), which is how `thunderbolt_bench` sweeps
// workload x engine combinations without compile-time coupling. Built-ins:
// "smallbank" (the paper's evaluation workload), "ycsb" (read/update/RMW
// key-value mix with pluggable key distributions) and "tpcc_lite" (NewOrder
// + Payment as TBVM contract programs with value-dependent access).
#ifndef THUNDERBOLT_WORKLOAD_WORKLOAD_H_
#define THUNDERBOLT_WORKLOAD_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/registry.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "common/zipfian.h"
#include "placement/placement.h"
#include "storage/kv_store.h"
#include "txn/transaction.h"

namespace thunderbolt::workload {

/// One options struct shared by every workload factory so the driver can
/// configure any of them from the same flag set. Fields a workload does not
/// understand are ignored (e.g. `distribution` by SmallBank).
struct WorkloadOptions {
  /// Population scale: SmallBank accounts, YCSB records. TPC-C-lite derives
  /// its own table sizes from the warehouse knobs below.
  uint64_t num_records = 10000;
  double theta = 0.85;           // Zipfian skew where applicable.
  double read_ratio = 0.5;       // Fraction of read-only transactions.
  double cross_shard_ratio = 0;  // Fraction of cross-shard transactions.
  uint32_t num_shards = 1;
  uint64_t seed = 42;

  // --- YCSB ---------------------------------------------------------------
  /// Key distribution: "uniform", "zipfian" or "hotspot".
  std::string distribution = "zipfian";
  /// Of the non-read operations, the fraction that are blind updates; the
  /// remainder are read-modify-writes.
  double update_ratio = 0.5;
  /// Hotspot distribution: `hotspot_op_fraction` of operations hit the
  /// hottest `hotspot_set_fraction` of records (uniform within each side).
  double hotspot_op_fraction = 0.8;
  double hotspot_set_fraction = 0.05;

  // --- TPC-C-lite ---------------------------------------------------------
  uint32_t num_warehouses = 2;
  uint32_t districts_per_warehouse = 10;
  uint32_t customers_per_district = 30;
  uint32_t num_items = 200;
  /// Fraction of Payment transactions; the remainder are NewOrders.
  double payment_ratio = 0.5;
};

/// Abstract workload: transaction source + store seeding + invariant.
///
/// What every generator shares lives in the base class: the options it was
/// built from, its RNG seeded from `options.seed`, its TxnId counter, the
/// account -> shard mapping and the per-shard population buckets. Every
/// workload generates against `mapper_`, which delegates to a placement::
/// PlacementPolicy (hash by default). The cluster installs its configured
/// policy via SetPlacementPolicy right after construction — and again
/// after hot-key migrations — at which point the workload rebuilds any
/// per-shard buckets it derived from the old mapping.
class Workload {
 public:
  explicit Workload(const WorkloadOptions& options);
  /// Default options over `num_shards` shards: for a wrapper that forwards
  /// generation to an inner workload.
  explicit Workload(uint32_t num_shards = 1)
      : Workload(WorkloadOptions{.num_shards = num_shards}) {}
  virtual ~Workload() = default;

  /// The options this workload generates from.
  const WorkloadOptions& options() const { return options_; }

  /// Registry name ("smallbank", "ycsb", ...).
  virtual std::string name() const = 0;

  /// Seeds the initial application state in `store`.
  virtual void InitStore(storage::KVStore* store) const = 0;

  /// Next transaction in the global mix.
  virtual txn::Transaction Next() = 0;

  /// Next transaction homed at `shard`. Workloads without a sharding notion
  /// may fall back to the global mix.
  virtual txn::Transaction NextForShard(ShardId shard) = 0;

  /// Convenience batch generators built on Next()/NextForShard().
  virtual std::vector<txn::Transaction> MakeBatch(size_t count);
  virtual std::vector<txn::Transaction> MakeShardBatch(ShardId shard,
                                                       size_t count);

  /// The account -> shard mapping this workload generates against.
  const txn::ShardMapper& mapper() const { return mapper_; }

  /// Installs a placement policy: the mapper delegates to it from now on
  /// and the workload's per-shard buckets are rebuilt against the new
  /// mapping. The policy is shared with the cluster, which may mutate it
  /// at reconfiguration boundaries and re-invoke this to refresh buckets.
  /// Does not touch the RNG stream: with a policy mapping identical to the
  /// current one (e.g. the default "hash"), generation is byte-identical.
  void SetPlacementPolicy(
      std::shared_ptr<const placement::PlacementPolicy> policy) {
    mapper_ = txn::ShardMapper(std::move(policy));
    RebuildShardBuckets();
  }

  /// Optional locality hint for the "locality" placement policy: the
  /// group of accounts `account` should co-locate with (accounts sharing
  /// a group land on one shard). Defaults to the account itself — no
  /// co-location structure. Must be pure (same account, same group) so
  /// all replicas agree.
  virtual std::string PlacementHint(const std::string& account) const {
    return account;
  }

  /// Fraction of NextForShard draws that deliberately span multiple shards
  /// (the configured cross_shard_ratio; 0 when the workload is sharded
  /// onto a single shard). Transactions may still be incidentally
  /// cross-shard when their account arguments hash apart — this reports
  /// only the intentional cross-shard traffic.
  virtual double CrossShardFraction() const {
    return options_.num_shards > 1 ? options_.cross_shard_ratio : 0.0;
  }

  /// The shard a transaction from NextForShard(s) is homed at: the shard
  /// of its anchor account (`s` by construction, even for cross-shard
  /// transactions, whose anchor stays in the requested shard). Default:
  /// the first account argument.
  virtual ShardId HomeShard(const txn::Transaction& tx) const;

  /// Checks the workload's consistency invariant over a final state (e.g.
  /// SmallBank total-balance conservation, TPC-C-lite YTD consistency).
  /// Returns OK when the invariant holds, Corruption otherwise.
  virtual Status CheckInvariant(const storage::KVStore& store) const = 0;

 protected:
  /// Rebuilds any account -> shard buckets derived from `mapper_`.
  /// Invoked by SetPlacementPolicy; workloads that precompute per-shard
  /// account lists override this (and call it from their constructor).
  virtual void RebuildShardBuckets() {}

  /// Fills `shard_buckets_`: the population indices [0, count), each in
  /// the bucket of the shard `name(i)` maps to, in index order (so a
  /// bucket keeps the global hotness order). With `zipfian`, also one
  /// Zipfian generator at options().theta over each bucket's ranks (over
  /// one rank for an empty bucket) into `shard_zipf_`.
  void BuildShardBuckets(uint64_t count,
                         const std::function<std::string(uint64_t)>& name,
                         bool zipfian);

  /// A shard other than `home`, uniformly: one RNG draw.
  ShardId OtherShard(ShardId home);

  /// A new transaction calling `contract`, stamped with the next TxnId.
  txn::Transaction NewTransaction(std::string contract);

  txn::ShardMapper mapper_;
  Rng rng_;  // Seeded from options().seed.
  /// BuildShardBuckets' output, indexed by shard.
  std::vector<std::vector<uint64_t>> shard_buckets_;
  std::vector<ZipfianGenerator> shard_zipf_;

 private:
  WorkloadOptions options_;
  TxnId next_txn_id_ = 1;
};

/// Creates the named placement policy configured for `workload` — wiring
/// Workload::PlacementHint in as the policy's locality hint, so the hint
/// must not outlive the workload — and installs it via SetPlacementPolicy.
/// Returns the shared policy (the caller keeps it to drive Rebalance), or
/// nullptr for an unknown policy name, leaving the workload's mapping
/// untouched. One helper so the cluster and the bench drivers cannot
/// drift apart in how they stand placement up.
std::shared_ptr<placement::PlacementPolicy> InstallPlacement(
    Workload* workload, const std::string& policy_name,
    const std::string& policy_params, uint32_t num_shards);

/// Applies "key=value[,key=value...]" overrides from `spec` onto
/// `options`, so drivers can configure any workload from one string
/// (e.g. "theta=0.9,cross_shard_ratio=0.1"). Recognized keys are the
/// WorkloadOptions fields by name, plus "num_accounts" as an alias for
/// num_records. Returns InvalidArgument on unknown keys or malformed
/// values; an empty spec is a no-op.
Status ApplyWorkloadParams(const std::string& spec, WorkloadOptions* options);

/// Name -> factory registry (common/registry.h). `Global()` is preloaded
/// with the built-in workloads; additional workloads can register at
/// startup.
class WorkloadRegistry
    : public FactoryRegistry<Workload, const WorkloadOptions&> {
 public:
  /// The process-wide registry, preloaded with the built-ins.
  static WorkloadRegistry& Global();
};

}  // namespace thunderbolt::workload

#endif  // THUNDERBOLT_WORKLOAD_WORKLOAD_H_
