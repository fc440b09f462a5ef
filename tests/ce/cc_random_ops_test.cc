// CC torture test: a synthetic contract whose operation sequence is
// *value-dependent* — every read changes which key it touches next and
// whether it writes — executed in randomized batches at brutal contention
// (very few keys). Verifies, for every seed:
//   1. the pool terminates (no livelock),
//   2. the dependency graph ends acyclic,
//   3. serial replay in the scheduled order reproduces every emitted
//      value and the exact final state (serializability, paper section 10),
//   4. the schedule survives replica-side validation (first-read checks),
//   5. after every engine call, every edge u->v into a committed v comes
//      from a committed u serialized earlier (no edge ever enters a
//      committed node, which the commit path relies on), and at batch end
//      every edge runs forward in the serialization order.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "ce/concurrency_controller.h"
#include "ce/sim_executor_pool.h"
#include "contract/contract.h"
#include "core/validator.h"
#include "testutil/testutil.h"

namespace thunderbolt::ce {
namespace {

using contract::ContractContext;
using storage::Value;

/// Deterministic mixer.
uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

/// Performs `rounds` operations over `num_keys` keys. The key and kind of
/// each operation depend on the previous read values, so the access set is
/// unknowable without executing — and differs between incarnations that
/// observe different values.
class RandomOpsContract final : public contract::Contract {
 public:
  RandomOpsContract(uint32_t num_keys, uint32_t rounds)
      : num_keys_(num_keys), rounds_(rounds) {}

  Status Execute(const txn::Transaction& tx,
                 ContractContext& ctx) const override {
    uint64_t state = Mix(static_cast<uint64_t>(tx.params.at(0)) + 0x9e37);
    Value acc = 0;
    for (uint32_t i = 0; i < rounds_; ++i) {
      state = Mix(state + static_cast<uint64_t>(acc) * 31 + i);
      std::string key = "k" + std::to_string(state % num_keys_);
      // Accumulator mixing is hash-like and intentionally wraps; do it in
      // uint64_t so the wraparound is well-defined.
      if ((state >> 8) % 3 == 0) {
        // Write a value derived from everything read so far.
        THUNDERBOLT_RETURN_NOT_OK(ctx.Write(
            key, static_cast<Value>(static_cast<uint64_t>(acc) * 7 + i + 1)));
      } else {
        THUNDERBOLT_ASSIGN_OR_RETURN(Value v, ctx.Read(key));
        acc = static_cast<Value>(static_cast<uint64_t>(acc) * 13 +
                                 static_cast<uint64_t>(v));
      }
    }
    ctx.EmitResult(acc);
    return Status::OK();
  }

 private:
  uint32_t num_keys_;
  uint32_t rounds_;
};

/// Serial reference context.
class SerialCtx final : public ContractContext {
 public:
  explicit SerialCtx(storage::MemKVStore* store) : store_(store) {}
  Result<Value> Read(const storage::Key& key) override {
    auto it = writes_.find(key);
    if (it != writes_.end()) return it->second;
    return store_->GetOrDefault(key, 0);
  }
  Status Write(const storage::Key& key, Value value) override {
    writes_[key] = value;
    return Status::OK();
  }
  void EmitResult(Value value) override { emitted.push_back(value); }
  void Commit() {
    for (auto& [k, v] : writes_) store_->Put(k, v);
  }
  std::vector<Value> emitted;

 private:
  storage::MemKVStore* store_;
  std::map<storage::Key, Value> writes_;
};

/// Forwards every call to a CC and checks invariant (5) after each one,
/// through the CC's test introspection only. The first violation is kept
/// and checking stops, so a broken invariant reports once.
class EdgeInvariantEngine final : public BatchEngine {
 public:
  EdgeInvariantEngine(ConcurrencyController* cc, uint32_t batch_size)
      : cc_(cc), n_(batch_size) {}

  void SetAbortCallback(AbortCallback cb) override {
    cc_->SetAbortCallback(std::move(cb));
  }
  uint32_t Begin(TxnSlot slot) override {
    const uint32_t incarnation = cc_->Begin(slot);
    Check("Begin", slot);
    return incarnation;
  }
  Result<Value> Read(TxnSlot slot, uint32_t incarnation,
                     const Key& key) override {
    Result<Value> r = cc_->Read(slot, incarnation, key);
    Check("Read", slot);
    return r;
  }
  Status Write(TxnSlot slot, uint32_t incarnation, const Key& key,
               Value v) override {
    Status s = cc_->Write(slot, incarnation, key, v);
    Check("Write", slot);
    return s;
  }
  void Emit(TxnSlot slot, uint32_t incarnation, Value v) override {
    cc_->Emit(slot, incarnation, v);
    Check("Emit", slot);
  }
  Status Finish(TxnSlot slot, uint32_t incarnation) override {
    Status s = cc_->Finish(slot, incarnation);
    Check("Finish", slot);
    return s;
  }

  bool AllCommitted() const override { return cc_->AllCommitted(); }
  uint32_t committed_count() const override { return cc_->committed_count(); }
  uint64_t total_aborts() const override { return cc_->total_aborts(); }
  const std::vector<TxnSlot>& SerializationOrder() const override {
    return cc_->SerializationOrder();
  }
  TxnRecord ExtractRecord(TxnSlot slot) const override {
    return cc_->ExtractRecord(slot);
  }
  storage::WriteBatch FinalWrites() const override {
    return cc_->FinalWrites();
  }

  /// Empty while the invariant held after every call.
  const std::string& violation() const { return violation_; }

  /// Position of each slot in the serialization order; -1 if uncommitted.
  std::vector<int> Positions() const {
    std::vector<int> pos(n_, -1);
    const std::vector<TxnSlot>& order = cc_->SerializationOrder();
    for (size_t i = 0; i < order.size(); ++i) {
      pos[order[i]] = static_cast<int>(i);
    }
    return pos;
  }

 private:
  void Check(const char* call, TxnSlot slot) {
    if (!violation_.empty()) return;
    const std::vector<int> pos = Positions();
    for (TxnSlot v : cc_->SerializationOrder()) {
      for (TxnSlot u = 0; u < n_; ++u) {
        if (!cc_->HasEdge(u, v)) continue;
        if (cc_->state(u) == SlotState::kCommitted && pos[u] < pos[v]) {
          continue;
        }
        std::ostringstream msg;
        msg << "after " << call << "(slot " << slot << "): edge " << u
            << "->" << v << " enters committed " << v << " (order " << pos[v]
            << ") from " << (pos[u] < 0 ? "live" : "later-committed") << " "
            << u;
        violation_ = msg.str();
        return;
      }
    }
  }

  ConcurrencyController* cc_;
  uint32_t n_;
  std::string violation_;
};

struct Param {
  uint64_t seed;
  uint32_t num_keys;
  uint32_t ops_per_txn;
  uint32_t batch;
  uint32_t executors;
};

class CcRandomOps : public ::testing::TestWithParam<Param> {};

TEST_P(CcRandomOps, SerializableUnderTorture) {
  const Param p = GetParam();
  auto registry = std::make_shared<contract::Registry>();
  registry->Register("torture.randops", std::make_unique<RandomOpsContract>(
                                            p.num_keys, p.ops_per_txn));

  std::vector<std::pair<std::string, Value>> init;
  for (uint32_t k = 0; k < p.num_keys; ++k) {
    init.emplace_back("k" + std::to_string(k), static_cast<Value>(k * 11));
  }
  storage::MemKVStore store = testutil::MakeStore(init);
  storage::MemKVStore serial_store = store.Clone();

  std::vector<txn::Transaction> batch(p.batch);
  for (uint32_t i = 0; i < p.batch; ++i) {
    batch[i].id = i + 1;
    batch[i].contract = "torture.randops";
    batch[i].params = {static_cast<Value>(Mix(p.seed * 1000 + i))};
  }

  ConcurrencyController cc(&store, p.batch);
  EdgeInvariantEngine engine(&cc, p.batch);
  SimExecutorPool pool(p.executors, ExecutionCostModel{});
  auto r = pool.Run(engine, *registry, batch);
  ASSERT_TRUE(r.ok()) << r.status().ToString();  // (1) termination.
  EXPECT_TRUE(cc.GraphIsAcyclic());               // (2) acyclic.
  EXPECT_EQ(engine.violation(), "") << "seed " << p.seed;  // (5) per call.
  const std::vector<int> pos = engine.Positions();
  for (TxnSlot u = 0; u < p.batch; ++u) {
    for (TxnSlot v = 0; v < p.batch; ++v) {
      if (cc.HasEdge(u, v)) {
        EXPECT_LT(pos[u], pos[v]) << "edge " << u << "->" << v << " (seed "
                                  << p.seed << ")";
      }
    }
  }

  // (3) serializability against the scheduled order.
  ASSERT_TRUE(store.Write(engine.FinalWrites()).ok());
  for (TxnSlot slot : r->order) {
    SerialCtx ctx(&serial_store);
    ASSERT_TRUE(registry->Execute(batch[slot], ctx).ok());
    ctx.Commit();
    EXPECT_EQ(r->records[slot].emitted, ctx.emitted)
        << "txn " << batch[slot].id << " diverged (seed " << p.seed << ")";
  }
  EXPECT_EQ(store.ContentFingerprint(), serial_store.ContentFingerprint());

  // (4) replica-side validation.
  std::vector<core::PreplayedTxn> preplayed;
  for (TxnSlot slot : r->order) {
    core::PreplayedTxn pt;
    pt.tx = batch[slot];
    pt.rw_set = r->records[slot].rw_set;
    pt.emitted = r->records[slot].emitted;
    preplayed.push_back(std::move(pt));
  }
  storage::MemKVStore base = testutil::MakeStore(init);
  core::ValidationResult vr =
      core::ValidatePreplay(*registry, preplayed, base);
  EXPECT_TRUE(vr.valid) << vr.failure << " (seed " << p.seed << ")";
  if (!vr.valid) fprintf(stderr, "FAILURE: %s\n", vr.failure.c_str());
}

std::vector<Param> MakeParams() {
  std::vector<Param> params;
  // Brutal contention: 4-16 keys shared by 30-120 transactions.
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    params.push_back(Param{seed, 4 + static_cast<uint32_t>(seed % 5) * 3,
                           5 + static_cast<uint32_t>(seed % 4), 30, 8});
  }
  params.push_back(Param{50, 4, 8, 120, 16});
  params.push_back(Param{51, 6, 10, 60, 4});
  params.push_back(Param{52, 16, 6, 120, 32});
  params.push_back(Param{53, 8, 12, 80, 8});
  return params;
}

INSTANTIATE_TEST_SUITE_P(Torture, CcRandomOps,
                         ::testing::ValuesIn(MakeParams()));

}  // namespace
}  // namespace thunderbolt::ce
