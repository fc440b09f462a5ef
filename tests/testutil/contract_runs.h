// Instruments for what an executor pool does with contract runs: a
// registry whose contracts count the runs they start, a probe contract
// that also counts the runs that got past their read, and an engine
// wrapper that counts attempts (Begin calls). A pool that runs each
// contract body once per attempt starts exactly as many runs as it begins
// attempts.
#ifndef THUNDERBOLT_TESTS_TESTUTIL_CONTRACT_RUNS_H_
#define THUNDERBOLT_TESTS_TESTUTIL_CONTRACT_RUNS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ce/batch_engine.h"
#include "contract/contract.h"
#include "contract/kv.h"
#include "contract/smallbank.h"
#include "contract/tpcc_lite.h"

namespace thunderbolt::testutil {

/// Counts the runs of `inner` it starts: one per Execute, the call that
/// creates a run's frame, so one per entry into the contract body.
class RunCountingContract final : public contract::Contract {
 public:
  RunCountingContract(const contract::Contract* inner,
                      std::atomic<uint64_t>* runs)
      : inner_(inner), runs_(runs) {}

  contract::ContractTask Execute(
      const txn::Transaction& tx,
      contract::ContractContext& ctx) const override {
    runs_->fetch_add(1, std::memory_order_relaxed);
    return inner_->Execute(tx, ctx);
  }

 private:
  const contract::Contract* inner_;
  std::atomic<uint64_t>* runs_;
};

/// The SmallBank, KV and TPC-C-lite contracts of the default registry,
/// each wrapped in a RunCountingContract that adds to `runs`.
struct RunCountingRegistry {
  RunCountingRegistry() {
    for (const char* name :
         {contract::kGetBalance, contract::kDepositChecking,
          contract::kTransactSavings, contract::kWriteCheck,
          contract::kSendPayment, contract::kAmalgamate, contract::kKvRead,
          contract::kKvUpdate, contract::kKvRmw, contract::kKvTransfer,
          contract::kTpccPayment, contract::kTpccNewOrder}) {
      registry.Register(name, std::make_unique<RunCountingContract>(
                                  base->Lookup(name), &runs));
    }
  }

  std::shared_ptr<contract::Registry> base =
      contract::Registry::CreateDefault();
  contract::Registry registry;
  std::atomic<uint64_t> runs{0};
};

/// The contract name of a ReadProbe's probe.
inline constexpr char kReadProbe[] = "test.read_probe";

/// Reads "<account>/value", then adds 1 to it. Counts per slot (the
/// transaction id) the runs started and the runs resumed past the read.
class ReadProbe {
 public:
  explicit ReadProbe(size_t slots) : started_(slots), resumed_(slots) {
    registry.Register(kReadProbe, std::make_unique<Probe>(this));
  }

  /// `n` probe transactions with ids (slots) 0..n-1 on distinct records.
  static std::vector<txn::Transaction> Batch(uint32_t n) {
    std::vector<txn::Transaction> batch(n);
    for (uint32_t i = 0; i < n; ++i) {
      batch[i].id = i;
      batch[i].contract = kReadProbe;
      batch[i].accounts = {"r" + std::to_string(i)};
    }
    return batch;
  }

  uint64_t started(size_t slot) const { return started_[slot].load(); }
  uint64_t resumed(size_t slot) const { return resumed_[slot].load(); }

  contract::Registry registry;

 private:
  class Probe final : public contract::Contract {
   public:
    explicit Probe(ReadProbe* probe) : probe_(probe) {}

    contract::ContractTask Execute(
        const txn::Transaction& tx,
        contract::ContractContext& ctx) const override {
      probe_->started_[tx.id].fetch_add(1);
      const contract::Key key = contract::KvValueKey(tx.accounts[0]);
      const contract::Value value = co_await ctx.Read(key);
      probe_->resumed_[tx.id].fetch_add(1);
      co_await ctx.Write(key, value + 1);
      co_return Status::OK();
    }

   private:
    ReadProbe* probe_;
  };

  std::vector<std::atomic<uint64_t>> started_;
  std::vector<std::atomic<uint64_t>> resumed_;
};

/// Forwards every call to `inner` and counts the attempts begun. The sim
/// pool test extends it to watch aborts.
class AttemptCountingEngine : public ce::BatchEngine {
 public:
  explicit AttemptCountingEngine(ce::BatchEngine* inner) : inner_(inner) {}

  uint64_t attempts() const { return attempts_.load(); }

  bool SupportsConcurrentExecutors() const override {
    return inner_->SupportsConcurrentExecutors();
  }
  void SetAbortCallback(ce::AbortCallback cb) override {
    inner_->SetAbortCallback(std::move(cb));
  }
  uint32_t Begin(ce::TxnSlot slot) override {
    attempts_.fetch_add(1, std::memory_order_relaxed);
    return inner_->Begin(slot);
  }
  Result<ce::Value> Read(ce::TxnSlot slot, uint32_t incarnation,
                         const ce::Key& key) override {
    return inner_->Read(slot, incarnation, key);
  }
  Status Write(ce::TxnSlot slot, uint32_t incarnation, const ce::Key& key,
               ce::Value value) override {
    return inner_->Write(slot, incarnation, key, value);
  }
  void Emit(ce::TxnSlot slot, uint32_t incarnation, ce::Value value) override {
    inner_->Emit(slot, incarnation, value);
  }
  Status Finish(ce::TxnSlot slot, uint32_t incarnation) override {
    return inner_->Finish(slot, incarnation);
  }
  bool AllCommitted() const override { return inner_->AllCommitted(); }
  uint32_t committed_count() const override {
    return inner_->committed_count();
  }
  uint64_t total_aborts() const override { return inner_->total_aborts(); }
  const std::vector<ce::TxnSlot>& SerializationOrder() const override {
    return inner_->SerializationOrder();
  }
  ce::TxnRecord ExtractRecord(ce::TxnSlot slot) const override {
    return inner_->ExtractRecord(slot);
  }
  storage::WriteBatch FinalWrites() const override {
    return inner_->FinalWrites();
  }

 private:
  ce::BatchEngine* inner_;
  std::atomic<uint64_t> attempts_{0};
};

}  // namespace thunderbolt::testutil

#endif  // THUNDERBOLT_TESTS_TESTUTIL_CONTRACT_RUNS_H_
