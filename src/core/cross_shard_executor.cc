#include "core/cross_shard_executor.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "baselines/serial_executor.h"
#include "core/pending_cross_index.h"

namespace thunderbolt::core {

CrossShardResult CrossShardExecutor::Execute(
    const std::vector<txn::Transaction>& txs, storage::KVStore* store,
    const std::vector<ShardId>* home_shards,
    placement::AccessTracker* tracker) const {
  // Ids local to this batch, in first-seen order.
  AccountIdTable accounts;
  std::vector<const txn::Transaction*> ptrs;
  std::vector<uint32_t> account_ids;
  ptrs.reserve(txs.size());
  size_t num_accounts = 0;
  for (const txn::Transaction& tx : txs) num_accounts += tx.accounts.size();
  account_ids.reserve(num_accounts);
  for (const txn::Transaction& tx : txs) {
    ptrs.push_back(&tx);
    for (const std::string& account : tx.accounts) {
      account_ids.push_back(accounts.Intern(account));
    }
  }
  return ExecuteInPlace(ptrs, account_ids, store, home_shards, tracker);
}

CrossShardResult CrossShardExecutor::ExecuteInPlace(
    const std::vector<const txn::Transaction*>& txs,
    const std::vector<uint32_t>& account_ids, storage::KVStore* store,
    const std::vector<ShardId>* home_shards,
    placement::AccessTracker* tracker) const {
  CrossShardResult result;
  if (txs.empty()) return result;
  const bool track = mapper_ != nullptr && home_shards != nullptr &&
                     home_shards->size() == txs.size();
  if (!account_ids.empty()) {
    const uint32_t max_id =
        *std::max_element(account_ids.begin(), account_ids.end());
    if (max_id >= queue_.size()) queue_.resize(max_id + size_t{1}, kIdle);
    touched_.reserve(account_ids.size());
  }

  // Execute in commit order (the state outcome), accumulating per-account
  // queue times (the virtual-time plan). A transaction's cost lands on
  // every account queue it touches; queues drain in parallel on the worker
  // pool, so the makespan is bounded below by the heaviest queue and by
  // total work divided by the workers.
  SimTime total = 0;
  size_t next = 0;  // Transaction t's ids follow those of 0..t-1.
  for (size_t t = 0; t < txs.size(); ++t) {
    const txn::Transaction& tx = *txs[t];
    const size_t end = next + tx.accounts.size();
    assert(end <= account_ids.size());
    if (track) {
      // Remote-access accounting: every account this transaction reaches
      // outside its home shard is a pull the placement policy could have
      // avoided — the signal hot-key migration ranks on.
      const ShardId home = (*home_shards)[t];
      for (const std::string& account : tx.accounts) {
        if (mapper_->ShardOfAccount(account) != home) {
          ++result.remote_accesses;
          if (tracker != nullptr) tracker->RecordRemoteAccess(account, home);
        }
      }
    }
    const uint64_t ops = baselines::ExecuteSerialOne(*registry_, tx, store);
    const SimTime duration = ops * op_cost_;
    result.total_ops += ops;
    ++result.executed;
    total += duration;
    // Chained dependency: the transaction starts after every queue it
    // participates in has drained; its cost extends all of them.
    SimTime ready = 0;
    for (size_t i = next; i < end; ++i) {
      SimTime& queue = queue_[account_ids[i]];
      if (queue == kIdle) {
        queue = 0;
        touched_.push_back(account_ids[i]);
      }
      ready = std::max(ready, queue);
    }
    for (size_t i = next; i < end; ++i) {
      queue_[account_ids[i]] = ready + duration;
    }
    next = end;
  }
  result.distinct_accounts = touched_.size();
  for (uint32_t id : touched_) {
    result.critical_path = std::max(result.critical_path, queue_[id]);
    queue_[id] = kIdle;
  }
  touched_.clear();
  result.duration =
      std::max(total / num_workers_, result.critical_path);
  return result;
}

}  // namespace thunderbolt::core
