#include "core/pending_cross_index.h"

#include <algorithm>
#include <utility>

namespace thunderbolt::core {

bool TxnIdSet::insert(TxnId id) {
  if (id == kFree) {
    if (has_free_id_) return false;
    has_free_id_ = true;
    return true;
  }
  if (2 * (used_ + 1) > slots_.size()) Grow();
  const size_t mask = slots_.size() - 1;
  size_t i = Home(id);
  for (; slots_[i] != kFree; i = (i + 1) & mask) {
    if (slots_[i] == id) return false;
  }
  slots_[i] = id;
  ++used_;
  return true;
}

bool TxnIdSet::erase(TxnId id) {
  if (id == kFree) {
    const bool was = has_free_id_;
    has_free_id_ = false;
    return was;
  }
  if (used_ == 0) return false;
  const size_t mask = slots_.size() - 1;
  size_t hole = Home(id);
  for (; slots_[hole] != id; hole = (hole + 1) & mask) {
    if (slots_[hole] == kFree) return false;
  }
  // Backward shift: walk the rest of the probe run and move back into the
  // hole every id whose home does not lie cyclically after the hole, so
  // each remaining id stays reachable from its home without tombstones.
  for (size_t j = (hole + 1) & mask; slots_[j] != kFree; j = (j + 1) & mask) {
    if (((j - Home(slots_[j])) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = kFree;
  --used_;
  return true;
}

bool TxnIdSet::contains(TxnId id) const {
  if (id == kFree) return has_free_id_;
  if (used_ == 0) return false;
  const size_t mask = slots_.size() - 1;
  for (size_t i = Home(id); slots_[i] != kFree; i = (i + 1) & mask) {
    if (slots_[i] == id) return true;
  }
  return false;
}

void TxnIdSet::clear() {
  if (used_ > 0) std::fill(slots_.begin(), slots_.end(), kFree);
  used_ = 0;
  has_free_id_ = false;
}

void TxnIdSet::Grow() {
  const std::vector<TxnId> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : 2 * old.size(), kFree);
  shift_ = old.empty() ? 60 : shift_ - 1;
  const size_t mask = slots_.size() - 1;
  for (TxnId id : old) {
    if (id == kFree) continue;
    size_t i = Home(id);
    while (slots_[i] != kFree) i = (i + 1) & mask;
    slots_[i] = id;
  }
}

void PendingCrossIndex::Add(const ThunderboltPayload& block) {
  if (block.cross_shard.empty()) return;
  const std::vector<uint32_t>& ids = block.CrossAccountIds(accounts_);
  if (refs_.size() < accounts_->size()) refs_.resize(accounts_->size(), 0);
  size_t next = 0;  // Transaction i's ids follow those of 0..i-1.
  for (const txn::Transaction& tx : block.cross_shard) {
    const size_t end = next + tx.accounts.size();
    if (pending_.insert(tx.id)) {
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
    if (pending_.erase(tx.id)) {
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
