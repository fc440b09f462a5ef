#include "core/pending_cross_index.h"

namespace thunderbolt::core {

void PendingCrossIndex::Add(const ThunderboltPayload& block) {
  if (block.cross_shard.empty()) return;
  const std::vector<uint32_t>& ids = block.CrossAccountIds(accounts_);
  if (refs_.size() < accounts_->size()) refs_.resize(accounts_->size(), 0);
  size_t next = 0;  // Transaction i's ids follow those of 0..i-1.
  for (const txn::Transaction& tx : block.cross_shard) {
    const size_t end = next + tx.accounts.size();
    if (pending_.insert(tx.id).second) {
      for (size_t i = next; i < end; ++i) ++refs_[ids[i]];
    }
    next = end;
  }
}

void PendingCrossIndex::Release(const ThunderboltPayload& block) {
  // With nothing pending no erase can succeed; skip computing the ids.
  if (pending_.empty() || block.cross_shard.empty()) return;
  const std::vector<uint32_t>& ids = block.CrossAccountIds(accounts_);
  size_t next = 0;
  for (const txn::Transaction& tx : block.cross_shard) {
    const size_t end = next + tx.accounts.size();
    if (pending_.erase(tx.id) > 0) {
      // A count already at zero stays there: an equivocated TxnId may name
      // other accounts in the committed block than in the received one.
      for (size_t i = next; i < end; ++i) {
        if (ids[i] < refs_.size() && refs_[ids[i]] > 0) --refs_[ids[i]];
      }
    }
    next = end;
  }
}

bool PendingCrossIndex::Conflicts(const txn::Transaction& tx) const {
  for (const std::string& account : tx.accounts) {
    const uint32_t id = accounts_->Find(account);
    if (id < refs_.size() && refs_[id] > 0) return true;
  }
  return false;
}

void PendingCrossIndex::Clear() {
  pending_.clear();
  refs_.clear();
}

}  // namespace thunderbolt::core
