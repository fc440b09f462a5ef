#include "ce/tpl_nowait_engine.h"

#include <algorithm>

namespace thunderbolt::ce {

TplNoWaitEngine::TplNoWaitEngine(const storage::ReadView* base,
                                 uint32_t batch_size)
    : base_(base), batch_size_(batch_size), slots_(batch_size) {
  order_.reserve(batch_size);
}

// Callers must hold mu_.
Value TplNoWaitEngine::Current(const Key& key) const {
  auto it = overlay_.find(key);
  if (it != overlay_.end()) return it->second;
  return base_->GetOrDefault(key, 0);
}

uint32_t TplNoWaitEngine::Begin(TxnSlot slot) {
  Slot& s = slots_[slot];
  s.running = true;
  return s.incarnation;
}

Result<Value> TplNoWaitEngine::Read(TxnSlot slot, uint32_t incarnation,
                                    const Key& key) {
  Slot& s = slots_[slot];
  if (s.incarnation != incarnation || !s.running) {
    return Status::Aborted("2pl: stale incarnation");
  }
  auto wit = s.writes.find(key);
  if (wit != s.writes.end()) return wit->second;
  auto rit = s.reads.find(key);
  if (rit != s.reads.end()) return rit->second;

  std::lock_guard<std::mutex> lk(mu_);
  Lock& lock = locks_[key];
  if (lock.has_exclusive && lock.exclusive != slot) {
    SelfAbort(slot);  // No-wait: conflicting writer holds the key.
    return Status::Aborted("2pl: read-lock conflict on " + key);
  }
  lock.shared.insert(slot);
  s.held_locks.insert(key);
  Value value = Current(key);
  s.reads[key] = value;
  return value;
}

Status TplNoWaitEngine::Write(TxnSlot slot, uint32_t incarnation,
                              const Key& key, Value value) {
  Slot& s = slots_[slot];
  if (s.incarnation != incarnation || !s.running) {
    return Status::Aborted("2pl: stale incarnation");
  }
  std::lock_guard<std::mutex> lk(mu_);
  Lock& lock = locks_[key];
  if (lock.has_exclusive && lock.exclusive != slot) {
    SelfAbort(slot);
    return Status::Aborted("2pl: write-lock conflict on " + key);
  }
  // Upgrade: fails when any *other* transaction holds a shared lock.
  for (TxnSlot holder : lock.shared) {
    if (holder != slot) {
      SelfAbort(slot);
      return Status::Aborted("2pl: upgrade conflict on " + key);
    }
  }
  lock.has_exclusive = true;
  lock.exclusive = slot;
  s.held_locks.insert(key);
  s.writes[key] = value;
  return Status::OK();
}

void TplNoWaitEngine::Emit(TxnSlot slot, uint32_t incarnation, Value value) {
  Slot& s = slots_[slot];
  if (s.incarnation != incarnation || !s.running) return;
  s.emitted.push_back(value);
}

// Callers must hold mu_.
void TplNoWaitEngine::ReleaseLocks(TxnSlot slot) {
  Slot& s = slots_[slot];
  for (const Key& key : s.held_locks) {
    auto it = locks_.find(key);
    if (it == locks_.end()) continue;
    Lock& lock = it->second;
    lock.shared.erase(slot);
    if (lock.has_exclusive && lock.exclusive == slot) {
      lock.has_exclusive = false;
    }
    if (lock.shared.empty() && !lock.has_exclusive) locks_.erase(it);
  }
  s.held_locks.clear();
}

// Callers must hold mu_ (the abort callback is invoked with it held;
// lock order: engine mutex, then pool mutex).
void TplNoWaitEngine::SelfAbort(TxnSlot slot) {
  Slot& s = slots_[slot];
  ReleaseLocks(slot);
  s.reads.clear();
  s.writes.clear();
  s.emitted.clear();
  s.running = false;
  ++s.incarnation;
  ++s.re_executions;
  ++total_aborts_;
  if (on_abort_) on_abort_(slot, obs::AbortReason::kLockAcquireFailure);
}

Status TplNoWaitEngine::Finish(TxnSlot slot, uint32_t incarnation) {
  Slot& s = slots_[slot];
  if (s.incarnation != incarnation || !s.running) {
    return Status::Aborted("2pl: stale incarnation");
  }
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [key, value] : s.writes) {
    overlay_[key] = value;
  }
  ReleaseLocks(slot);
  s.running = false;
  s.committed = true;
  s.order = static_cast<int>(order_.size());
  order_.push_back(slot);
  ++committed_;
  return Status::OK();
}

TxnRecord TplNoWaitEngine::ExtractRecord(TxnSlot slot) const {
  const Slot& s = slots_[slot];
  TxnRecord out;
  out.re_executions = s.re_executions;
  out.order = s.order;
  out.emitted = s.emitted;
  for (const auto& [key, value] : s.reads) {
    out.rw_set.reads.push_back(txn::Operation{txn::OpType::kRead, key, value});
  }
  for (const auto& [key, value] : s.writes) {
    out.rw_set.writes.push_back(
        txn::Operation{txn::OpType::kWrite, key, value});
  }
  return out;
}

storage::WriteBatch TplNoWaitEngine::FinalWrites() const {
  std::vector<std::pair<Key, Value>> entries;
  entries.reserve(overlay_.size());
  for (const auto& kv : overlay_) entries.push_back(kv);
  std::sort(entries.begin(), entries.end());
  storage::WriteBatch batch;
  for (auto& [key, value] : entries) batch.Put(key, value);
  return batch;
}

size_t TplNoWaitEngine::LockedKeyCount() const {
  std::lock_guard<std::mutex> lk(mu_);
  return locks_.size();
}

}  // namespace thunderbolt::ce
