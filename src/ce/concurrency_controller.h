// The Concurrency Controller (CC) at the heart of Thunderbolt's Concurrent
// Executor (paper sections 7, 8 and 10).
//
// CC executes a batch of transactions concurrently *without any prior
// knowledge of read/write sets*. It maintains a runtime dependency graph
// G(V, E): nodes are transactions, an edge e(u, v, k) orders u before v
// because of key k. The ordering between transactions is nondeterministic —
// it is fixed lazily, only when a value flows between transactions (a read
// observes another transaction's write) or when both commit — which lets CC
// reschedule conflicting transactions instead of aborting them (Figure 1).
//
// Key behaviours reproduced from the paper:
//  - Reads may observe *uncommitted* writes of other transactions; the
//    value source is recorded so invalidation cascades precisely
//    (Table 1: T2 reads D from T1 before T1 commits).
//  - Each node stores at most two operations per key: the first read and
//    the last write (section 8.1).
//  - A new writer orders all existing readers of the key before itself
//    (write-after-read; Figure 9a), so readers need not abort.
//  - A reader prefers the most recent writer; other writers are ordered
//    before the chosen source or after the reader (Figure 9b). When the
//    preferred source would create a dependency cycle, CC falls back to
//    ancestor writers and finally the root/storage (Figure 10a).
//  - Conflicts trigger the abort process of section 8.4: if the acting
//    transaction only performed reads it aborts itself; if it re-writes a
//    key whose previous value was already consumed downstream, the
//    *dependents* are cascade-aborted and the writer survives (Figure 10b).
//  - Commit order fixes any remaining write-write ambiguity
//    (Write-Complete, section 10); the final serialization order is a
//    topological order of G in which every transaction re-reads the same
//    values (Read-Complete).
#ifndef THUNDERBOLT_CE_CONCURRENCY_CONTROLLER_H_
#define THUNDERBOLT_CE_CONCURRENCY_CONTROLLER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ce/batch_engine.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/kv_store.h"
#include "txn/transaction.h"

namespace thunderbolt::ce {

/// Lifecycle of a transaction slot inside CC.
enum class SlotState : uint8_t {
  kIdle,       // Not started (or restarted and waiting to run again).
  kRunning,    // Executor currently issuing operations.
  kFinished,   // All operations issued; waiting for dependencies to commit.
  kCommitted,  // Serialized; results final.
};

class ConcurrencyController final : public BatchEngine {
 public:
  /// `base` supplies root values (committed storage). Must outlive CC.
  ConcurrencyController(const storage::ReadView* base, uint32_t batch_size);

  /// The callback is invoked for every slot that must be re-executed (both
  /// self-aborts and cascading aborts); the executor pool re-queues them.
  /// Reason: kReadWriteConflict for the initiating reader of a failed
  /// PlanRead, kCascadeInvalidation for every victim whose consumed value
  /// was invalidated (section 8.4 case 2).
  void SetAbortCallback(AbortCallback cb) override {
    on_abort_ = std::move(cb);
  }

  /// CC's dependency graph is one shared structure — any operation can
  /// reschedule or cascade-abort *other* slots — so concurrent executors
  /// serialize on a single engine mutex (the real-world analogue of the
  /// sim pool's engine_serial_cost, here covering the whole operation).
  bool SupportsConcurrentExecutors() const override { return true; }

  // --- Executor-facing interface (BatchEngine) ----------------------------

  /// Marks the slot as running and returns its current incarnation. Ops
  /// from stale incarnations are rejected (Table 1, time 9).
  uint32_t Begin(TxnSlot slot) override;

  /// <Read, K>: returns the value for `key`, establishing dependencies.
  /// Returns Status::Aborted when the transaction must restart.
  Result<Value> Read(TxnSlot slot, uint32_t incarnation,
                     const Key& key) override;

  /// <Write, K, V>. Returns Status::Aborted when the transaction must
  /// restart (its incarnation is stale).
  Status Write(TxnSlot slot, uint32_t incarnation, const Key& key,
               Value v) override;

  /// Records a client-visible result value.
  void Emit(TxnSlot slot, uint32_t incarnation, Value v) override;

  /// Finalization phase: the executor finished issuing operations. CC
  /// commits the transaction once all dependencies committed. Returns
  /// Aborted when the transaction was invalidated meanwhile.
  Status Finish(TxnSlot slot, uint32_t incarnation) override;

  // --- Batch results ------------------------------------------------------

  bool AllCommitted() const override {
    return committed_count_ == batch_size_;
  }
  uint32_t committed_count() const override { return committed_count_; }
  uint64_t total_aborts() const override { return total_aborts_; }

  /// The serialization order (slot ids) fixed by commits. Only meaningful
  /// once AllCommitted().
  const std::vector<TxnSlot>& SerializationOrder() const override {
    return order_;
  }

  /// Extracts the per-transaction record (read/write sets in first-read /
  /// last-write form, emitted results, re-execution count, order index).
  TxnRecord ExtractRecord(TxnSlot slot) const override;

  /// Final value of every key written by the batch (last committed writer
  /// in serialization order wins). Applied to storage by the caller.
  storage::WriteBatch FinalWrites() const override;

  // --- Introspection for tests -------------------------------------------

  SlotState state(TxnSlot slot) const { return nodes_[slot].state; }
  bool HasEdge(TxnSlot from, TxnSlot to) const;
  /// True when the dependency graph currently has no cycle.
  bool GraphIsAcyclic() const;

 private:
  struct KeyRecord {
    bool has_read = false;
    Value first_read = 0;
    TxnSlot read_from = kRootSlot;  // Source of first_read.
    bool has_write = false;
    Value last_write = 0;
  };

  struct KeyIndex {
    /// Writers ordered by write recency (back = latest).
    std::vector<TxnSlot> writers;
    /// Every node that has read this key.
    std::vector<TxnSlot> readers;
  };

  /// A key_index_ element. Entries are never erased and unordered_map
  /// nodes never move, so its address interns the key for the batch.
  using KeyEntry = std::pair<const Key, KeyIndex>;

  /// One key a transaction touched, with its first-read / last-write pair.
  struct TouchedKey {
    KeyEntry* key;
    KeyRecord rec;
  };

  struct Node {
    SlotState state = SlotState::kIdle;
    uint32_t incarnation = 0;
    /// In first-touch order. A transaction touches a handful of keys, so
    /// lookups scan by interned key; ExtractRecord sorts by key string.
    std::vector<TouchedKey> records;
    std::set<TxnSlot> out;  // this -> other (this serializes first).
    std::set<TxnSlot> in;
    std::vector<Value> emitted;
    uint32_t re_executions = 0;
    int order = -1;
  };

  static KeyRecord* FindRecord(Node& node, const KeyEntry* key);

  // Graph helpers.
  bool HasPath(TxnSlot from, TxnSlot to);
  void AddEdge(TxnSlot from, TxnSlot to);
  void RemoveNodeEdges(TxnSlot slot);

  // Read algorithm: picks a source for `slot`'s read of the key `index`
  // describes, ordering all other writers consistently. Returns the
  // source slot (kRootSlot for storage) or nullopt if every candidate
  // fails.
  std::optional<TxnSlot> PlanRead(TxnSlot slot, const KeyIndex& index);

  // Abort machinery (section 8.4). `reason` describes the *initiator*'s
  // abort cause; transitive victims always report kCascadeInvalidation.
  void AbortTxn(TxnSlot slot, obs::AbortReason reason);
  void CollectValueDependents(TxnSlot slot, std::set<TxnSlot>& out) const;
  /// Resets every victim (clearing records/edges and bumping incarnations),
  /// then retries commits for finished transactions that were waiting on a
  /// victim's now-removed edges. `initiator` (if a member of `victims`)
  /// reports `reason`; everyone else reports kCascadeInvalidation.
  void ResetSlots(const std::set<TxnSlot>& victims, TxnSlot initiator,
                  obs::AbortReason reason);
  void ResetSlot(TxnSlot slot, obs::AbortReason reason);

  // Commit machinery.
  void TryCommit(TxnSlot slot);

  Value RootValue(const Key& key) const;

  const storage::ReadView* base_;
  uint32_t batch_size_;
  /// Guards the graph and every per-slot structure; held across each
  /// Begin/Read/Write/Emit/Finish (including abort-callback invocations —
  /// lock order: engine mutex, then pool mutex).
  mutable std::mutex mu_;
  std::vector<Node> nodes_;
  std::unordered_map<Key, KeyIndex> key_index_;
  std::vector<TxnSlot> order_;
  // Scratch buffers reused across operations (under mu_; none of their
  // users re-enters another): PlanRead's candidates and tentative edges,
  // HasPath's generation-stamped visited marks and DFS stack, Write's
  // reader snapshot and TryCommit's FIFO worklist.
  std::vector<TxnSlot> candidates_;
  std::vector<std::pair<TxnSlot, TxnSlot>> applied_;
  std::vector<uint32_t> visited_at_;
  uint32_t visit_generation_ = 0;
  std::vector<TxnSlot> dfs_stack_;
  std::vector<TxnSlot> reader_snapshot_;
  std::vector<TxnSlot> commit_worklist_;
  /// Atomic so progress checks never block on mu_ (thread-safety contract
  /// point 2 in batch_engine.h).
  std::atomic<uint32_t> committed_count_{0};
  std::atomic<uint64_t> total_aborts_{0};
  AbortCallback on_abort_;
};

}  // namespace thunderbolt::ce

#endif  // THUNDERBOLT_CE_CONCURRENCY_CONTROLLER_H_
