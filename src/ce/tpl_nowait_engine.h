// 2PL-No-Wait baseline (paper section 11.1).
//
// Executors access storage through a central lock controller. Every read
// takes a shared lock and every write an exclusive lock on the key; if a
// lock cannot be granted immediately the transaction releases all of its
// locks and re-executes (no waiting, hence deadlock-free). Locks are held
// until Finish, which applies the write buffer and releases everything.
#ifndef THUNDERBOLT_CE_TPL_NOWAIT_ENGINE_H_
#define THUNDERBOLT_CE_TPL_NOWAIT_ENGINE_H_

#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <unordered_map>
#include <vector>

#include "ce/batch_engine.h"

namespace thunderbolt::ce {

class TplNoWaitEngine final : public BatchEngine {
 public:
  TplNoWaitEngine(const storage::ReadView* base, uint32_t batch_size);

  /// No-wait restarts are always failed lock acquisitions (read, write or
  /// upgrade), so every callback invocation reports
  /// obs::AbortReason::kLockAcquireFailure.
  void SetAbortCallback(AbortCallback cb) override {
    on_abort_ = std::move(cb);
  }

  /// Per-slot state is single-owner (no-wait aborts only the acting
  /// transaction); the central lock controller — lock table, committed
  /// overlay, order — serializes on one mutex, the engine's real critical
  /// section. Repeat reads and write-buffer hits stay lock-free.
  bool SupportsConcurrentExecutors() const override { return true; }

  uint32_t Begin(TxnSlot slot) override;
  Result<Value> Read(TxnSlot slot, uint32_t incarnation,
                     const Key& key) override;
  Status Write(TxnSlot slot, uint32_t incarnation, const Key& key,
               Value value) override;
  void Emit(TxnSlot slot, uint32_t incarnation, Value value) override;
  Status Finish(TxnSlot slot, uint32_t incarnation) override;

  bool AllCommitted() const override { return committed_ == batch_size_; }
  uint32_t committed_count() const override { return committed_; }
  uint64_t total_aborts() const override { return total_aborts_; }
  const std::vector<TxnSlot>& SerializationOrder() const override {
    return order_;
  }
  TxnRecord ExtractRecord(TxnSlot slot) const override;
  storage::WriteBatch FinalWrites() const override;

  /// Introspection for tests: number of keys currently locked.
  size_t LockedKeyCount() const;

 private:
  struct Lock {
    std::set<TxnSlot> shared;
    bool has_exclusive = false;
    TxnSlot exclusive = 0;
  };
  struct Slot {
    bool running = false;
    bool committed = false;
    uint32_t incarnation = 0;
    uint32_t re_executions = 0;
    int order = -1;
    std::set<Key> held_locks;
    std::map<Key, Value> reads;   // Value observed at first read.
    std::map<Key, Value> writes;  // Local write buffer.
    std::vector<Value> emitted;
  };

  Value Current(const Key& key) const;
  void ReleaseLocks(TxnSlot slot);
  void SelfAbort(TxnSlot slot);

  const storage::ReadView* base_;
  uint32_t batch_size_;
  std::vector<Slot> slots_;
  /// Guards locks_, overlay_ and order_ (the lock-controller critical
  /// section). Held while invoking the abort callback — lock order:
  /// engine mutex, then pool mutex.
  mutable std::mutex mu_;
  std::unordered_map<Key, Lock> locks_;
  std::unordered_map<Key, Value> overlay_;  // Committed within the batch.
  std::vector<TxnSlot> order_;
  /// Atomic so progress checks never block (batch_engine.h contract).
  std::atomic<uint32_t> committed_{0};
  std::atomic<uint64_t> total_aborts_{0};
  AbortCallback on_abort_;
};

}  // namespace thunderbolt::ce

#endif  // THUNDERBOLT_CE_TPL_NOWAIT_ENGINE_H_
