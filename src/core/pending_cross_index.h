// The rule-P4 pending cross-shard index (paper section 5.1), keyed by dense
// account ids. One AccountIdTable per cluster maps each account string to
// an id, each payload computes its cross-shard transactions' ids once
// (ThunderboltPayload::CrossAccountIds), and each replica's index counts
// references per id in a flat vector instead of hashing account strings
// per block. The pending TxnIds sit in one flat open-addressing table
// (TxnIdSet), so receiving and committing a cross-shard transaction
// allocates nothing once the table has grown. node.h says why sharing the
// ids leaves P4's decisions as they were.
#ifndef THUNDERBOLT_CORE_PENDING_CROSS_INDEX_H_
#define THUNDERBOLT_CORE_PENDING_CROSS_INDEX_H_

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "core/payload.h"
#include "txn/transaction.h"

namespace thunderbolt::core {

/// Dense ids for account strings, assigned in first-seen order. Ids never
/// reach an output: they only index the replicas' reference counts.
class AccountIdTable {
 public:
  static constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

  /// The id of `account`, assigning the next one on first sight.
  uint32_t Intern(const std::string& account) {
    return ids_.try_emplace(account, static_cast<uint32_t>(ids_.size()))
        .first->second;
  }
  /// The id of `account`, or kNone when it was never interned.
  uint32_t Find(const std::string& account) const {
    auto it = ids_.find(account);
    return it == ids_.end() ? kNone : it->second;
  }
  size_t size() const { return ids_.size(); }

 private:
  std::unordered_map<std::string, uint32_t> ids_;
};

/// A set of TxnIds in one flat table: open addressing with linear probing
/// over a power-of-two table that doubles at half load, and backward-shift
/// erase, so no slot is ever a tombstone and no node is allocated per id.
/// Every uint64_t is a valid id: the value that marks a free slot is held
/// in a flag instead of the table. clear() keeps the capacity.
class TxnIdSet {
 public:
  /// Adds `id`; false when it was already a member.
  bool insert(TxnId id);
  /// Removes `id`; false when it was not a member.
  bool erase(TxnId id);
  bool contains(TxnId id) const;
  bool empty() const { return used_ == 0 && !has_free_id_; }
  void clear();

 private:
  static constexpr TxnId kFree = std::numeric_limits<TxnId>::max();

  /// The slot `id` probes first (Fibonacci hashing: TxnIds come from a
  /// counter, and the multiply spreads consecutive ids across the table).
  size_t Home(TxnId id) const {
    return static_cast<size_t>((id * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  void Grow();

  std::vector<TxnId> slots_;  // Power-of-two size; kFree marks a free slot.
  size_t used_ = 0;           // Slots holding an id.
  unsigned shift_ = 64;       // 64 - log2(slots_.size()).
  bool has_free_id_ = false;  // Whether kFree itself is a member.
};

/// One replica's P4 index: the cross-shard transactions seen in received
/// blocks but not yet committed, and a reference count per account they
/// touch. A transaction counts once however many blocks carry it (an
/// equivocating proposer can put one TxnId in two blocks), and committing
/// a transaction that is not pending changes nothing.
class PendingCrossIndex {
 public:
  explicit PendingCrossIndex(AccountIdTable* accounts) : accounts_(accounts) {}

  /// A block arrived: its cross-shard transactions become pending.
  void Add(const ThunderboltPayload& block);
  /// A block committed: its pending cross-shard transactions are released.
  void Release(const ThunderboltPayload& block);
  /// True when `tx`'s accounts overlap a pending transaction's (the P4
  /// conflict predicate). An account missing from the table is not pending.
  bool Conflicts(const txn::Transaction& tx) const;
  /// Forgets everything (the old DAG's uncommitted state at reconfiguration).
  void Clear();

 private:
  AccountIdTable* accounts_;
  TxnIdSet pending_;
  std::vector<uint32_t> refs_;  // By account id; ids past the end read 0.
};

}  // namespace thunderbolt::core

#endif  // THUNDERBOLT_CORE_PENDING_CROSS_INDEX_H_
