// Deterministic parallel execution of committed cross-shard transactions
// (paper section 5.2).
//
// Cross-shard transactions follow the Order-Execute model: consensus fixes
// their total order first, then every replica executes them. Rather than
// strictly serial execution, Thunderbolt plans QueCC-style from the
// sharding metadata alone: a transaction's account arguments (each mapping
// to a SID) bound the keys it can touch, so per-account queues capture all
// possible conflicts without any read/write set knowledge. Transactions
// sharing an account execute in commit order; independent queues run on a
// parallel worker pool.
//
// State outcome: identical to fully serial commit-order execution (the
// implementation executes in commit order; the queue structure only
// determines the virtual-time makespan):
//   makespan = max(total_cost / num_workers, heaviest account queue)
//
// Execution runs by pointer: ExecuteInPlace runs each transaction where it
// lies (the commit path passes the committed blocks' own transactions)
// through baselines::ExecuteSerialOne, which builds no TxnRecord, since
// nothing here reads one. The account queues are keyed by dense account
// id: the commit path passes the ids its payloads already cache for the P4
// index (ThunderboltPayload::CrossAccountIds), and the queues live in a
// flat array kept across calls, of which each call resets only the entries
// it touched. Remote accesses are recorded into an AccessTracker only when
// the caller passes one, which the commit path does only for placement
// policies whose Rebalance reads it (directory).
#ifndef THUNDERBOLT_CORE_CROSS_SHARD_EXECUTOR_H_
#define THUNDERBOLT_CORE_CROSS_SHARD_EXECUTOR_H_

#include <limits>
#include <vector>

#include "common/types.h"
#include "contract/contract.h"
#include "placement/placement.h"
#include "storage/kv_store.h"
#include "txn/transaction.h"

namespace thunderbolt::core {

struct CrossShardResult {
  uint64_t executed = 0;         // Transactions applied.
  uint64_t total_ops = 0;
  uint64_t distinct_accounts = 0;
  uint64_t remote_accesses = 0;  // Accounts reached outside their home.
  SimTime critical_path = 0;     // Heaviest per-account queue (virtual).
  SimTime duration = 0;          // Virtual makespan.
};

class CrossShardExecutor {
 public:
  /// `num_workers` is the parallel worker pool for independent account
  /// queues (the scheduling overhead of cross-queue coordination keeps
  /// this small in practice; see EXPERIMENTS.md calibration notes).
  /// Conflict planning needs only the transactions' account arguments, so
  /// the executor is workload-agnostic: any Workload's cross-shard
  /// transactions run here unchanged. `mapper` (optional) enables remote-
  /// access accounting against the current placement policy — the signal
  /// hot-key migration consumes.
  CrossShardExecutor(const contract::Registry* registry, SimTime op_cost,
                     uint32_t num_workers = 4,
                     const txn::ShardMapper* mapper = nullptr)
      : registry_(registry),
        op_cost_(op_cost),
        num_workers_(num_workers == 0 ? 1 : num_workers),
        mapper_(mapper) {}

  /// Executes the transactions `txs` points at (already in consensus commit
  /// order) against `store`, mutating it exactly as serial commit-order
  /// execution would. `account_ids` holds dense ids for their accounts,
  /// flattened in order: the ids of txs[t] follow those of txs[0..t-1], one
  /// per entry of its `accounts` (the layout of
  /// ThunderboltPayload::CrossAccountIds). Equal ids must mean equal
  /// accounts; the ids only key the queues.
  ///
  /// With a mapper configured and `home_shards` given (one entry per
  /// transaction: the shard the transaction is anchored at), every account
  /// an execution reaches outside its home shard is counted in
  /// `remote_accesses`, and into `tracker` when given — the per-shard
  /// access counters PlacementPolicy::Rebalance consults at the next
  /// reconfiguration boundary.
  ///
  /// Reuses queue storage across calls, so one executor must not run two
  /// batches at once.
  CrossShardResult ExecuteInPlace(
      const std::vector<const txn::Transaction*>& txs,
      const std::vector<uint32_t>& account_ids, storage::KVStore* store,
      const std::vector<ShardId>* home_shards = nullptr,
      placement::AccessTracker* tracker = nullptr) const;

  /// ExecuteInPlace over a batch held by value, with account ids interned
  /// for this batch alone.
  CrossShardResult Execute(const std::vector<txn::Transaction>& txs,
                           storage::KVStore* store,
                           const std::vector<ShardId>* home_shards = nullptr,
                           placement::AccessTracker* tracker = nullptr) const;

 private:
  /// A queue no transaction of the current batch has reached yet.
  static constexpr SimTime kIdle = std::numeric_limits<SimTime>::max();

  const contract::Registry* registry_;
  SimTime op_cost_;
  uint32_t num_workers_;
  const txn::ShardMapper* mapper_;
  /// Finish time of each account's queue, by account id; kIdle between
  /// calls. Grows to the largest id seen and is never refilled whole.
  mutable std::vector<SimTime> queue_;
  /// The ids the current call took out of kIdle, reset when it returns.
  mutable std::vector<uint32_t> touched_;
};

}  // namespace thunderbolt::core

#endif  // THUNDERBOLT_CORE_CROSS_SHARD_EXECUTOR_H_
