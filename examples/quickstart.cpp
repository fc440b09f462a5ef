// Quickstart: the Concurrent Executor in isolation.
//
// Builds a contract registry, executes a small SmallBank batch through the
// CC with 4 virtual executors (discovering read/write sets at runtime),
// validates the preplay results like a Thunderbolt replica would, and
// applies them to storage.
//
//   ./examples/quickstart
#include <cstdio>
#include <memory>

#include "ce/engine_registry.h"
#include "ce/sim_executor_pool.h"
#include "contract/contract.h"
#include "contract/smallbank.h"
#include "core/validator.h"
#include "storage/kv_store.h"
#include "txn/transaction.h"

using namespace thunderbolt;

int main() {
  // 1. Storage with two accounts.
  storage::MemKVStore store;
  store.Put(txn::CheckingKey("alice"), 100);
  store.Put(txn::SavingsKey("alice"), 50);
  store.Put(txn::CheckingKey("bob"), 30);
  store.Put(txn::SavingsKey("bob"), 0);

  // 2. The default registry: native SmallBank + TBVM-compiled SmallBank.
  auto registry = contract::Registry::CreateDefault();

  // 3. A batch of transactions. Note the read/write sets are unknown here:
  //    whether send_payment writes anything depends on balances at
  //    execution time.
  std::vector<txn::Transaction> batch;
  auto add = [&](std::string contract, std::vector<std::string> accounts,
                 std::vector<storage::Value> params) {
    txn::Transaction tx;
    tx.id = batch.size() + 1;
    tx.contract = std::move(contract);
    tx.accounts = std::move(accounts);
    tx.params = std::move(params);
    batch.push_back(std::move(tx));
  };
  add(contract::kSendPayment, {"alice", "bob"}, {40});
  add(contract::kGetBalance, {"bob"}, {});
  add(contract::kDepositChecking, {"bob"}, {25});
  add(contract::kSendPayment, {"bob", "alice"}, {1000});  // Will decline.
  add("tbvm.get_balance", {"alice"}, {});  // Bytecode VM contract.

  // 4. Preplay through the Concurrent Executor.
  std::unique_ptr<ce::BatchEngine> engine = ce::EngineRegistry::Global().Create(
      "ce", &store, static_cast<uint32_t>(batch.size()));
  ce::SimExecutorPool pool(4, ce::ExecutionCostModel{});
  auto result = pool.Run(*engine, *registry, batch);
  if (!result.ok()) {
    std::fprintf(stderr, "preplay failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  std::printf("scheduled order (nondeterministic, fixed by CC commits):\n");
  for (ce::TxnSlot slot : result->order) {
    const ce::TxnRecord& rec = result->records[slot];
    std::printf("  txn %llu %-28s reads=%zu writes=%zu results=[",
                static_cast<unsigned long long>(batch[slot].id),
                batch[slot].contract.c_str(), rec.rw_set.reads.size(),
                rec.rw_set.writes.size());
    for (storage::Value v : rec.emitted) std::printf("%lld ", (long long)v);
    std::printf("]\n");
  }
  std::printf("virtual makespan: %.1f us, re-executions: %llu\n",
              static_cast<double>(result->duration),
              static_cast<unsigned long long>(result->total_aborts));

  // 5. Validate like a replica would (paper section 4), then apply.
  std::vector<core::PreplayedTxn> preplayed;
  for (ce::TxnSlot slot : result->order) {
    core::PreplayedTxn p;
    p.tx = batch[slot];
    p.rw_set = result->records[slot].rw_set;
    p.emitted = result->records[slot].emitted;
    preplayed.push_back(std::move(p));
  }
  core::ValidationResult vr =
      core::ValidatePreplay(*registry, preplayed, store);
  std::printf("validation: %s\n", vr.valid ? "VALID" : "INVALID");
  if (vr.valid) store.Write(vr.writes);

  std::printf("final balances: alice checking=%lld, bob checking=%lld\n",
              (long long)store.GetOrDefault(txn::CheckingKey("alice"), 0),
              (long long)store.GetOrDefault(txn::CheckingKey("bob"), 0));
  return 0;
}
