#include "ce/concurrency_controller.h"

#include <algorithm>
#include <cassert>
#include <deque>

namespace thunderbolt::ce {

namespace {

void EraseFromVector(std::vector<TxnSlot>& v, TxnSlot slot) {
  v.erase(std::remove(v.begin(), v.end(), slot), v.end());
}

}  // namespace

ConcurrencyController::ConcurrencyController(const storage::ReadView* base,
                                             uint32_t batch_size)
    : base_(base),
      batch_size_(batch_size),
      nodes_(batch_size),
      visited_at_(batch_size, 0) {
  order_.reserve(batch_size);
  // Room for a typical transaction's keys (SmallBank touches at most
  // three), kept across restarts.
  for (Node& node : nodes_) node.records.reserve(4);
}

ConcurrencyController::KeyRecord* ConcurrencyController::FindRecord(
    Node& node, const KeyEntry* key) {
  for (TouchedKey& t : node.records) {
    if (t.key == key) return &t.rec;
  }
  return nullptr;
}

Value ConcurrencyController::RootValue(const Key& key) const {
  return base_->GetOrDefault(key, 0);
}

// --- Graph helpers ---------------------------------------------------------

bool ConcurrencyController::HasPath(TxnSlot from, TxnSlot to) {
  if (from == to) return true;
  // Iterative DFS. Every caller starts at a live transaction, and a
  // committed node only has committed in-neighbours, so the search visits
  // live transactions only: the in-flight frontier, not the whole batch.
  // A node is visited when its mark equals this search's generation.
  if (++visit_generation_ == 0) {
    std::fill(visited_at_.begin(), visited_at_.end(), 0);
    visit_generation_ = 1;
  }
  dfs_stack_.clear();
  dfs_stack_.push_back(from);
  visited_at_[from] = visit_generation_;
  while (!dfs_stack_.empty()) {
    TxnSlot cur = dfs_stack_.back();
    dfs_stack_.pop_back();
    for (TxnSlot next : nodes_[cur].out) {
      if (next == to) return true;
      if (visited_at_[next] != visit_generation_) {
        visited_at_[next] = visit_generation_;
        dfs_stack_.push_back(next);
      }
    }
  }
  return false;
}

void ConcurrencyController::AddEdge(TxnSlot from, TxnSlot to) {
  assert(from != to);
  nodes_[from].out.insert(to);
  nodes_[to].in.insert(from);
}

void ConcurrencyController::RemoveNodeEdges(TxnSlot slot) {
  Node& node = nodes_[slot];
  for (TxnSlot to : node.out) nodes_[to].in.erase(slot);
  for (TxnSlot from : node.in) nodes_[from].out.erase(slot);
  node.out.clear();
  node.in.clear();
}

bool ConcurrencyController::HasEdge(TxnSlot from, TxnSlot to) const {
  return nodes_[from].out.count(to) > 0;
}

bool ConcurrencyController::GraphIsAcyclic() const {
  // Kahn's algorithm over live nodes.
  std::vector<uint32_t> indegree(batch_size_, 0);
  uint32_t live = 0;
  for (TxnSlot s = 0; s < batch_size_; ++s) {
    if (nodes_[s].state == SlotState::kIdle && nodes_[s].records.empty()) {
      continue;
    }
    ++live;
    indegree[s] = static_cast<uint32_t>(nodes_[s].in.size());
  }
  std::deque<TxnSlot> ready;
  for (TxnSlot s = 0; s < batch_size_; ++s) {
    if ((nodes_[s].state != SlotState::kIdle || !nodes_[s].records.empty()) &&
        indegree[s] == 0) {
      ready.push_back(s);
    }
  }
  uint32_t seen = 0;
  while (!ready.empty()) {
    TxnSlot s = ready.front();
    ready.pop_front();
    ++seen;
    for (TxnSlot t : nodes_[s].out) {
      if (--indegree[t] == 0) ready.push_back(t);
    }
  }
  return seen == live;
}

// --- Executor-facing interface ----------------------------------------------

uint32_t ConcurrencyController::Begin(TxnSlot slot) {
  std::lock_guard<std::mutex> lk(mu_);
  Node& node = nodes_[slot];
  assert(node.state == SlotState::kIdle);
  node.state = SlotState::kRunning;
  return node.incarnation;
}

Result<Value> ConcurrencyController::Read(TxnSlot slot, uint32_t incarnation,
                                          const Key& key) {
  std::lock_guard<std::mutex> lk(mu_);
  Node& node = nodes_[slot];
  if (node.incarnation != incarnation || node.state != SlotState::kRunning) {
    return Status::Aborted("stale incarnation");
  }

  KeyEntry& entry = *key_index_.try_emplace(key).first;

  // Section 8.3: if the node already holds a record for the key, the result
  // is retrieved directly (read-your-writes, then repeat-your-reads).
  // Every record holds a read or a write, so past this point the node has
  // none for the key.
  if (const KeyRecord* rec = FindRecord(node, &entry)) {
    if (rec->has_write) return rec->last_write;
    if (rec->has_read) return rec->first_read;
  }

  std::optional<TxnSlot> source = PlanRead(slot, entry.second);
  if (!source.has_value()) {
    // Section 8.4: no consistent source exists. Abort the acting
    // transaction (and anything that consumed its writes).
    AbortTxn(slot, obs::AbortReason::kReadWriteConflict);
    return Status::Aborted("read conflict on key " + key);
  }

  Value value;
  if (*source == kRootSlot) {
    value = RootValue(key);
  } else {
    const KeyRecord* src_rec = FindRecord(nodes_[*source], &entry);
    assert(src_rec != nullptr && src_rec->has_write);
    value = src_rec->last_write;
  }

  KeyRecord rec;
  rec.has_read = true;
  rec.first_read = value;
  rec.read_from = *source;
  node.records.push_back(TouchedKey{&entry, rec});
  entry.second.readers.push_back(slot);
  return value;
}

std::optional<TxnSlot> ConcurrencyController::PlanRead(
    TxnSlot slot, const KeyIndex& index) {
  // Candidate sources: writers from most- to least-recent, then the root.
  candidates_.clear();
  for (auto it = index.writers.rbegin(); it != index.writers.rend(); ++it) {
    if (*it != slot) candidates_.push_back(*it);
  }
  candidates_.push_back(kRootSlot);

  // Ordering constraints must be *stable*: a transitive path through an
  // uncommitted third party disappears if that node aborts, silently
  // dropping the constraint. Therefore every required ordering between two
  // live transactions is materialized as a direct edge; orderings
  // involving committed transactions are immutable facts of the
  // serialization prefix and need no edge.
  for (TxnSlot source : candidates_) {
    if (source != kRootSlot && HasPath(slot, source)) {
      // The source would have to precede the reader but is already ordered
      // after it; try an older writer (Figure 10a fallback).
      continue;
    }

    applied_.clear();
    auto rollback = [&]() {
      for (auto& [a, b] : applied_) {
        nodes_[a].out.erase(b);
        nodes_[b].in.erase(a);
      }
    };
    // Ensures a-before-b durably. Returns false when impossible.
    auto ensure_order = [&](TxnSlot a, TxnSlot b) {
      if (a == b) return true;
      const bool a_committed = nodes_[a].state == SlotState::kCommitted;
      const bool b_committed = nodes_[b].state == SlotState::kCommitted;
      if (a_committed && b_committed) {
        return nodes_[a].order < nodes_[b].order;
      }
      if (a_committed) return true;   // Commits strictly precede live txns.
      if (b_committed) return false;  // A live txn cannot precede a commit.
      if (nodes_[a].out.count(b)) return true;  // Direct edge exists.
      if (HasPath(b, a)) return false;          // Would create a cycle.
      AddEdge(a, b);
      applied_.emplace_back(a, b);
      return true;
    };

    bool feasible = true;
    for (TxnSlot v : index.writers) {
      if (v == slot || v == source) continue;
      // Every other writer must be ordered before the source (paper
      // section 8.2, "make all other write nodes contain a path to u") or
      // after the reader.
      if (source != kRootSlot && ensure_order(v, source)) continue;
      if (ensure_order(slot, v)) continue;
      feasible = false;
      break;
    }
    if (feasible && source != kRootSlot) {
      feasible = ensure_order(source, slot);
    }
    if (!feasible) {
      rollback();
      continue;
    }
    return source;
  }
  return std::nullopt;
}

Status ConcurrencyController::Write(TxnSlot slot, uint32_t incarnation,
                                    const Key& key, Value value) {
  std::lock_guard<std::mutex> lk(mu_);
  Node& node = nodes_[slot];
  if (node.incarnation != incarnation || node.state != SlotState::kRunning) {
    return Status::Aborted("stale incarnation");
  }

  KeyEntry& entry = *key_index_.try_emplace(key).first;
  KeyIndex& index = entry.second;
  const KeyRecord* own = FindRecord(node, &entry);
  const bool had_write = own != nullptr && own->has_write;

  // An abort of another transaction can cascade back to the acting one
  // (the victim may be upstream of a value this transaction consumed on a
  // different key). Every abort below is followed by this liveness check.
  auto self_alive = [&]() {
    return nodes_[slot].incarnation == incarnation &&
           nodes_[slot].state == SlotState::kRunning;
  };

  if (had_write) {
    // Re-write of a key whose previous value may already have been consumed
    // downstream (Figure 10b / Table 1 time 5): cascade-abort every reader
    // of this transaction's value on the key; the writer itself survives
    // unless it transitively consumed a victim's value.
    std::set<TxnSlot> victims;
    for (TxnSlot r : index.readers) {
      if (r == slot) continue;
      const KeyRecord* rrec = FindRecord(nodes_[r], &entry);
      if (rrec != nullptr && rrec->has_read && rrec->read_from == slot) {
        victims.insert(r);
        CollectValueDependents(r, victims);
      }
    }
    victims.erase(slot);
    ResetSlots(victims, kRootSlot, obs::AbortReason::kCascadeInvalidation);
    if (!self_alive()) return Status::Aborted("aborted during rewrite");
    FindRecord(node, &entry)->last_write = value;
    // Refresh recency: move this writer to the back of the writer list.
    EraseFromVector(index.writers, slot);
    index.writers.push_back(slot);
    return Status::OK();
  }

  // First write to the key by this transaction. (A prior read by the same
  // transaction already ordered it after its source — nothing extra to do.)
  //
  // Section 8.2 (Figure 9a): order existing readers of the key before the
  // new writer so their reads stay valid. A reader already ordered *after*
  // us observed a value that our write now invalidates -> abort it. The
  // scan runs before the write registers so a cascading self-abort leaves
  // no half-registered state.
  reader_snapshot_.assign(index.readers.begin(), index.readers.end());
  for (TxnSlot r : reader_snapshot_) {
    if (r == slot) continue;
    Node& rn = nodes_[r];
    if (rn.state == SlotState::kIdle) continue;      // Stale entry.
    if (rn.state == SlotState::kCommitted) continue;  // Already before us.
    const KeyRecord* rrec = FindRecord(rn, &entry);
    if (rrec == nullptr || !rrec->has_read) continue;
    if (rrec->read_from == slot) continue;  // Reads our own value.
    if (HasPath(slot, r)) {
      // Reader is ordered after us but read an older value: its read is no
      // longer the latest-preceding write. Abort the reader (cascading from
      // the acting writer, section 8.4 case 2).
      AbortTxn(r, obs::AbortReason::kCascadeInvalidation);
      if (!self_alive()) return Status::Aborted("aborted during write");
      continue;
    }
    // Durable reader-before-writer constraint: always a direct edge (a
    // transitive path could vanish if an intermediate transaction aborts).
    AddEdge(r, slot);
  }

  KeyRecord* rec = FindRecord(node, &entry);
  if (rec == nullptr) {
    rec = &node.records.emplace_back(TouchedKey{&entry, {}}).rec;
  }
  rec->has_write = true;
  rec->last_write = value;
  index.writers.push_back(slot);
  return Status::OK();
}

void ConcurrencyController::Emit(TxnSlot slot, uint32_t incarnation,
                                 Value value) {
  std::lock_guard<std::mutex> lk(mu_);
  Node& node = nodes_[slot];
  if (node.incarnation != incarnation || node.state != SlotState::kRunning) {
    return;
  }
  node.emitted.push_back(value);
}

Status ConcurrencyController::Finish(TxnSlot slot, uint32_t incarnation) {
  std::lock_guard<std::mutex> lk(mu_);
  Node& node = nodes_[slot];
  if (node.incarnation != incarnation ||
      (node.state != SlotState::kRunning)) {
    return Status::Aborted("stale incarnation");
  }
  node.state = SlotState::kFinished;
  TryCommit(slot);
  return Status::OK();
}

// --- Abort machinery ---------------------------------------------------------

void ConcurrencyController::CollectValueDependents(
    TxnSlot slot, std::set<TxnSlot>& out) const {
  // Every live node that read any value produced by `slot`, transitively.
  std::vector<TxnSlot> frontier{slot};
  while (!frontier.empty()) {
    TxnSlot cur = frontier.back();
    frontier.pop_back();
    for (TxnSlot succ : nodes_[cur].out) {
      if (out.count(succ)) continue;
      const Node& sn = nodes_[succ];
      bool reads_from_cur = false;
      for (const TouchedKey& t : sn.records) {
        if (t.rec.has_read && t.rec.read_from == cur) {
          reads_from_cur = true;
          break;
        }
      }
      if (reads_from_cur) {
        out.insert(succ);
        frontier.push_back(succ);
      }
    }
  }
}

void ConcurrencyController::AbortTxn(TxnSlot slot, obs::AbortReason reason) {
  std::set<TxnSlot> victims{slot};
  CollectValueDependents(slot, victims);
  ResetSlots(victims, slot, reason);
}

void ConcurrencyController::ResetSlots(const std::set<TxnSlot>& victims,
                                       TxnSlot initiator,
                                       obs::AbortReason reason) {
  // Transactions that were blocked on a victim's edges may become
  // committable once those edges disappear; collect them before resetting.
  std::set<TxnSlot> wake;
  for (TxnSlot v : victims) {
    for (TxnSlot succ : nodes_[v].out) wake.insert(succ);
  }
  for (TxnSlot v : victims) {
    if (nodes_[v].state == SlotState::kRunning ||
        nodes_[v].state == SlotState::kFinished) {
      ++total_aborts_;
      ResetSlot(v, v == initiator
                       ? reason
                       : obs::AbortReason::kCascadeInvalidation);
    }
  }
  for (TxnSlot w : wake) {
    if (victims.count(w)) continue;
    if (nodes_[w].state == SlotState::kFinished) TryCommit(w);
  }
}

void ConcurrencyController::ResetSlot(TxnSlot slot, obs::AbortReason reason) {
  Node& node = nodes_[slot];
  assert(node.state != SlotState::kCommitted);
  RemoveNodeEdges(slot);
  for (const TouchedKey& t : node.records) {
    EraseFromVector(t.key->second.writers, slot);
    EraseFromVector(t.key->second.readers, slot);
  }
  node.records.clear();
  node.emitted.clear();
  node.state = SlotState::kIdle;
  ++node.incarnation;
  ++node.re_executions;
  if (on_abort_) on_abort_(slot, reason);
}

// --- Commit machinery --------------------------------------------------------

void ConcurrencyController::TryCommit(TxnSlot slot) {
  commit_worklist_.clear();
  commit_worklist_.push_back(slot);
  for (size_t head = 0; head < commit_worklist_.size(); ++head) {
    const TxnSlot cur = commit_worklist_[head];
    Node& node = nodes_[cur];
    if (node.state != SlotState::kFinished) continue;

    bool deps_committed = true;
    for (TxnSlot dep : node.in) {
      if (nodes_[dep].state != SlotState::kCommitted) {
        deps_committed = false;
        break;
      }
    }
    if (!deps_committed) continue;

    // Committed co-writers need no edge: commit time fixes write-write
    // order (section 7.1) and order_ already lists them first. Such an
    // edge would leave a committed node, which no search from a live node
    // reaches, since no edge is ever added into a committed node.
    node.state = SlotState::kCommitted;
    node.order = static_cast<int>(order_.size());
    order_.push_back(cur);
    ++committed_count_;

    for (TxnSlot succ : node.out) {
      if (nodes_[succ].state == SlotState::kFinished) {
        commit_worklist_.push_back(succ);
      }
    }
  }
}

// --- Batch results -------------------------------------------------------------

TxnRecord ConcurrencyController::ExtractRecord(TxnSlot slot) const {
  const Node& node = nodes_[slot];
  TxnRecord out;
  out.re_executions = node.re_executions;
  out.order = node.order;
  out.emitted = node.emitted;
  size_t reads = 0;
  for (const TouchedKey& t : node.records) reads += t.rec.has_read;
  out.rw_set.reads.reserve(reads);
  out.rw_set.writes.reserve(node.records.size() - reads);
  for (const TouchedKey& t : node.records) {
    if (t.rec.has_read) {
      out.rw_set.reads.push_back(
          txn::Operation{txn::OpType::kRead, t.key->first, t.rec.first_read});
    }
    if (t.rec.has_write) {
      out.rw_set.writes.push_back(txn::Operation{
          txn::OpType::kWrite, t.key->first, t.rec.last_write});
    }
  }
  // Ascending by key: block payloads hash the sets in this order.
  auto by_key = [](const txn::Operation& a, const txn::Operation& b) {
    return a.key < b.key;
  };
  std::sort(out.rw_set.reads.begin(), out.rw_set.reads.end(), by_key);
  std::sort(out.rw_set.writes.begin(), out.rw_set.writes.end(), by_key);
  return out;
}

storage::WriteBatch ConcurrencyController::FinalWrites() const {
  // Every write in serialization order, then stably by key: the last of a
  // run of one key is its last committed writer's value.
  std::vector<std::pair<const KeyEntry*, Value>> writes;
  for (TxnSlot slot : order_) {
    for (const TouchedKey& t : nodes_[slot].records) {
      if (t.rec.has_write) writes.emplace_back(t.key, t.rec.last_write);
    }
  }
  std::stable_sort(writes.begin(), writes.end(),
                   [](const auto& a, const auto& b) {
                     return a.first->first < b.first->first;
                   });
  storage::WriteBatch batch;
  for (size_t i = 0; i < writes.size(); ++i) {
    if (i + 1 < writes.size() && writes[i + 1].first == writes[i].first) {
      continue;
    }
    batch.Put(writes[i].first->first, writes[i].second);
  }
  return batch;
}

}  // namespace thunderbolt::ce
