#include "ce/occ_engine.h"

#include <algorithm>

namespace thunderbolt::ce {

OccEngine::OccEngine(const storage::ReadView* base, uint32_t batch_size)
    : base_(base), batch_size_(batch_size), slots_(batch_size) {
  order_.reserve(batch_size);
}

// Callers must hold mu_ (shared suffices; Finish holds it exclusive).
storage::VersionedValue OccEngine::Current(const Key& key) const {
  auto it = overlay_.find(key);
  if (it != overlay_.end()) return it->second;
  auto r = base_->Get(key);
  if (r.ok()) return *r;
  return storage::VersionedValue{0, 0};  // Absent keys: value 0, version 0.
}

uint32_t OccEngine::Begin(TxnSlot slot) {
  Slot& s = slots_[slot];
  s.running = true;
  return s.incarnation;
}

Result<Value> OccEngine::Read(TxnSlot slot, uint32_t incarnation,
                              const Key& key) {
  Slot& s = slots_[slot];
  if (s.incarnation != incarnation || !s.running) {
    return Status::Aborted("occ: stale incarnation");
  }
  // Read-your-writes, then repeat-your-reads.
  auto wit = s.writes.find(key);
  if (wit != s.writes.end()) return wit->second;
  auto rit = s.reads.find(key);
  if (rit != s.reads.end()) return rit->second.value;

  storage::VersionedValue vv;
  {
    std::shared_lock<std::shared_mutex> lk(mu_);
    vv = Current(key);
  }
  s.reads[key] = ReadEntry{vv.value, vv.version};
  return vv.value;
}

Status OccEngine::Write(TxnSlot slot, uint32_t incarnation, const Key& key,
                        Value value) {
  Slot& s = slots_[slot];
  if (s.incarnation != incarnation || !s.running) {
    return Status::Aborted("occ: stale incarnation");
  }
  s.writes[key] = value;
  return Status::OK();
}

void OccEngine::Emit(TxnSlot slot, uint32_t incarnation, Value value) {
  Slot& s = slots_[slot];
  if (s.incarnation != incarnation || !s.running) return;
  s.emitted.push_back(value);
}

void OccEngine::SelfAbort(TxnSlot slot) {
  Slot& s = slots_[slot];
  s.reads.clear();
  s.writes.clear();
  s.emitted.clear();
  s.running = false;
  ++s.incarnation;
  ++s.re_executions;
  ++total_aborts_;
  if (on_abort_) on_abort_(slot, obs::AbortReason::kValidationFailure);
}

Status OccEngine::Finish(TxnSlot slot, uint32_t incarnation) {
  Slot& s = slots_[slot];
  if (s.incarnation != incarnation || !s.running) {
    return Status::Aborted("occ: stale incarnation");
  }
  // Central verifier: validation and write installation form one exclusive
  // critical section, so no two transactions can validate against a state
  // the other is mid-way through changing.
  std::unique_lock<std::shared_mutex> lk(mu_);
  // Every read must still carry the version it observed.
  for (const auto& [key, entry] : s.reads) {
    if (Current(key).version != entry.version) {
      // Build the status before SelfAbort: it clears s.reads, which would
      // leave `key` dangling.
      Status failed = Status::Aborted("occ: validation failed on key " + key);
      SelfAbort(slot);
      return failed;
    }
  }
  // Commit: install writes with bumped versions.
  for (const auto& [key, value] : s.writes) {
    storage::VersionedValue vv = Current(key);
    overlay_[key] = storage::VersionedValue{value, vv.version + 1};
  }
  s.running = false;
  s.committed = true;
  s.order = static_cast<int>(order_.size());
  order_.push_back(slot);
  ++committed_;
  return Status::OK();
}

TxnRecord OccEngine::ExtractRecord(TxnSlot slot) const {
  const Slot& s = slots_[slot];
  TxnRecord out;
  out.re_executions = s.re_executions;
  out.order = s.order;
  out.emitted = s.emitted;
  for (const auto& [key, entry] : s.reads) {
    out.rw_set.reads.push_back(
        txn::Operation{txn::OpType::kRead, key, entry.value});
  }
  for (const auto& [key, value] : s.writes) {
    out.rw_set.writes.push_back(
        txn::Operation{txn::OpType::kWrite, key, value});
  }
  return out;
}

storage::WriteBatch OccEngine::FinalWrites() const {
  std::vector<std::pair<Key, Value>> entries;
  entries.reserve(overlay_.size());
  for (const auto& [key, vv] : overlay_) entries.emplace_back(key, vv.value);
  std::sort(entries.begin(), entries.end());
  storage::WriteBatch batch;
  for (auto& [key, value] : entries) batch.Put(key, value);
  return batch;
}

}  // namespace thunderbolt::ce
