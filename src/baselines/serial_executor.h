// Serial execution, as used by the Tusk baseline: transactions are executed
// one after another against storage in their committed order (the paper's
// Order-Execute model with no execution parallelism).
//
// ExecuteSerialOne is the one routine: it runs a single transaction where
// it lies, by reference, and builds its TxnRecord only when the caller
// passes one. The commit path (Tusk's serial execution and the cross-shard
// executor) asks for none; ExecuteSerial runs a batch held by value and
// returns every record.
#ifndef THUNDERBOLT_BASELINES_SERIAL_EXECUTOR_H_
#define THUNDERBOLT_BASELINES_SERIAL_EXECUTOR_H_

#include <vector>

#include "ce/batch_engine.h"
#include "common/types.h"
#include "contract/contract.h"
#include "storage/kv_store.h"
#include "txn/transaction.h"

namespace thunderbolt::baselines {

struct SerialExecutionResult {
  std::vector<ce::TxnRecord> records;  // In input order.
  SimTime duration = 0;                // Virtual time consumed.
  uint64_t total_ops = 0;
};

/// Executes `tx` against `store`, applying its buffered writes when the
/// contract succeeds, and returns the storage operations it made. When
/// `record` is given, fills its read/write sets and emitted results (left
/// empty when the contract fails); `record->order` is the caller's.
uint64_t ExecuteSerialOne(const contract::Registry& registry,
                          const txn::Transaction& tx, storage::KVStore* store,
                          ce::TxnRecord* record = nullptr);

/// Executes `batch` sequentially against `store` (writes applied as each
/// transaction commits), recording every transaction. `op_cost` is charged
/// per storage operation on the virtual clock. Transactions that fail at
/// the contract level (bad args) are applied as no-ops deterministically.
SerialExecutionResult ExecuteSerial(const contract::Registry& registry,
                                    const std::vector<txn::Transaction>& batch,
                                    storage::KVStore* store,
                                    SimTime op_cost);

}  // namespace thunderbolt::baselines

#endif  // THUNDERBOLT_BASELINES_SERIAL_EXECUTOR_H_
