// OCC baseline (Kung & Robinson, paper section 11.1).
//
// Each executor runs its transaction against the committed state, buffering
// writes locally. Reads record the version of the value obtained. On
// Finish, a central verifier cross-checks the recorded versions against the
// current committed versions; any mismatch rejects the commit and the
// transaction re-executes. Unlike Thunderbolt's CC there is no rescheduling:
// a conflicting transaction always restarts.
#ifndef THUNDERBOLT_CE_OCC_ENGINE_H_
#define THUNDERBOLT_CE_OCC_ENGINE_H_

#include <atomic>
#include <functional>
#include <map>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "ce/batch_engine.h"

namespace thunderbolt::ce {

class OccEngine final : public BatchEngine {
 public:
  /// `base` supplies committed values/versions; must outlive the engine.
  OccEngine(const storage::ReadView* base, uint32_t batch_size);

  /// OCC restarts are always validation failures (the only abort site is
  /// the Finish-time version cross-check), so every callback invocation
  /// reports obs::AbortReason::kValidationFailure.
  void SetAbortCallback(AbortCallback cb) override {
    on_abort_ = std::move(cb);
  }

  /// Per-slot state is single-owner (OCC aborts only itself, from its own
  /// Finish), so slot accesses are lock-free; only the committed overlay
  /// is shared — reads take `mu_` shared, the Finish-time validate+commit
  /// critical section takes it exclusive (the "central verifier").
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

 private:
  struct ReadEntry {
    Value value;
    storage::Version version;
  };
  struct Slot {
    bool running = false;
    bool committed = false;
    uint32_t incarnation = 0;
    uint32_t re_executions = 0;
    int order = -1;
    // Insertion-ordered for deterministic rw-set output.
    std::map<Key, ReadEntry> reads;
    std::map<Key, Value> writes;
    std::vector<Value> emitted;
  };

  storage::VersionedValue Current(const Key& key) const;
  void SelfAbort(TxnSlot slot);

  const storage::ReadView* base_;
  uint32_t batch_size_;
  std::vector<Slot> slots_;
  /// Guards overlay_ and order_ (shared for reads, exclusive for the
  /// Finish validate+commit section).
  mutable std::shared_mutex mu_;
  /// Writes committed within this batch, overlaid on `base_`.
  std::unordered_map<Key, storage::VersionedValue> overlay_;
  std::vector<TxnSlot> order_;
  /// Atomic so progress checks never block (batch_engine.h contract).
  std::atomic<uint32_t> committed_{0};
  std::atomic<uint64_t> total_aborts_{0};
  AbortCallback on_abort_;
};

}  // namespace thunderbolt::ce

#endif  // THUNDERBOLT_CE_OCC_ENGINE_H_
