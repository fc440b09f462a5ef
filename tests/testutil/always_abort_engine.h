// Engine stub whose slot 0 aborts at every Finish (or, when asked, at every
// Read), forever. A real engine never does this, but a buggy one (or a
// pathological contract) can: it livelocks any pool that runs it, which
// must then fail the batch (the pool's per-transaction restart bound) and,
// in a cluster, stop the run loudly rather than report a silent 0 tps.
#ifndef THUNDERBOLT_TESTS_TESTUTIL_ALWAYS_ABORT_ENGINE_H_
#define THUNDERBOLT_TESTS_TESTUTIL_ALWAYS_ABORT_ENGINE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "ce/batch_engine.h"

namespace thunderbolt::testutil {

class AlwaysAbortSlotZeroEngine final : public ce::BatchEngine {
 public:
  /// The operation at which slot 0 aborts.
  enum class AbortAt { kFinish, kRead };

  explicit AlwaysAbortSlotZeroEngine(uint32_t n,
                                     AbortAt abort_at = AbortAt::kFinish)
      : n_(n), abort_at_(abort_at), committed_(n, false) {}

  void SetAbortCallback(ce::AbortCallback cb) override { cb_ = std::move(cb); }
  uint32_t Begin(ce::TxnSlot) override { return 0; }
  Result<ce::Value> Read(ce::TxnSlot slot, uint32_t, const ce::Key&) override {
    if (slot == 0 && abort_at_ == AbortAt::kRead) {
      return Abort(obs::AbortReason::kReadWriteConflict);
    }
    return ce::Value{0};
  }
  Status Write(ce::TxnSlot, uint32_t, const ce::Key&, ce::Value) override {
    return Status::OK();
  }
  void Emit(ce::TxnSlot, uint32_t, ce::Value) override {}
  Status Finish(ce::TxnSlot slot, uint32_t) override {
    if (slot == 0 && abort_at_ == AbortAt::kFinish) {
      return Abort(obs::AbortReason::kValidationFailure);
    }
    if (!committed_[slot]) {
      committed_[slot] = true;
      ++committed_count_;
      order_.push_back(slot);
    }
    return Status::OK();
  }
  bool AllCommitted() const override { return committed_count_ == n_; }
  uint32_t committed_count() const override { return committed_count_; }
  uint64_t total_aborts() const override { return total_aborts_; }
  const std::vector<ce::TxnSlot>& SerializationOrder() const override {
    return order_;
  }
  ce::TxnRecord ExtractRecord(ce::TxnSlot) const override {
    return ce::TxnRecord{};
  }
  storage::WriteBatch FinalWrites() const override { return {}; }

 private:
  Status Abort(obs::AbortReason reason) {
    ++total_aborts_;
    if (cb_) cb_(0, reason);
    return Status::Aborted("stub: permanent abort");
  }

  const uint32_t n_;
  const AbortAt abort_at_;
  ce::AbortCallback cb_;
  std::vector<bool> committed_;
  uint32_t committed_count_ = 0;
  uint64_t total_aborts_ = 0;
  std::vector<ce::TxnSlot> order_;
};

}  // namespace thunderbolt::testutil

#endif  // THUNDERBOLT_TESTS_TESTUTIL_ALWAYS_ABORT_ENGINE_H_
