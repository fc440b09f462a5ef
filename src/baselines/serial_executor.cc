#include "baselines/serial_executor.h"

namespace thunderbolt::baselines {

namespace {

using storage::Key;
using storage::Value;

/// Context executing directly against the store, buffering writes until the
/// transaction completes (so failed contracts leave no partial state). Reads
/// and results are recorded only into a caller-supplied record.
class SerialContext final : public contract::ContractContext {
 public:
  SerialContext(const storage::KVStore* store, ce::TxnRecord* record)
      : store_(store), record_(record) {}

  Result<Value> DoRead(const Key& key) override {
    ++ops;
    auto wit = writes.find(key);
    const Value v = wit != writes.end() ? wit->second
                                        : store_->GetOrDefault(key, 0);
    if (record_ != nullptr) {
      record_->rw_set.reads.push_back(
          txn::Operation{txn::OpType::kRead, key, v});
    }
    return v;
  }

  Status DoWrite(const Key& key, Value value) override {
    ++ops;
    writes[key] = value;
    return Status::OK();
  }

  void EmitResult(Value value) override {
    if (record_ != nullptr) record_->emitted.push_back(value);
  }

  std::map<Key, Value> writes;
  uint64_t ops = 0;

 private:
  const storage::KVStore* store_;
  ce::TxnRecord* record_;
};

}  // namespace

uint64_t ExecuteSerialOne(const contract::Registry& registry,
                          const txn::Transaction& tx, storage::KVStore* store,
                          ce::TxnRecord* record) {
  SerialContext ctx(store, record);
  Status s = registry.Execute(tx, ctx);
  if (s.ok()) {
    for (const auto& [key, value] : ctx.writes) {
      store->Put(key, value);
      if (record != nullptr) {
        record->rw_set.writes.push_back(
            txn::Operation{txn::OpType::kWrite, key, value});
      }
    }
  } else if (record != nullptr) {
    // Deterministic no-op: drop buffered writes, keep the record empty.
    record->rw_set.Clear();
    record->emitted.clear();
  }
  return ctx.ops;
}

SerialExecutionResult ExecuteSerial(const contract::Registry& registry,
                                    const std::vector<txn::Transaction>& batch,
                                    storage::KVStore* store,
                                    SimTime op_cost) {
  SerialExecutionResult result;
  result.records.resize(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const uint64_t ops =
        ExecuteSerialOne(registry, batch[i], store, &result.records[i]);
    result.records[i].order = static_cast<int>(i);
    result.total_ops += ops;
    result.duration += ops * op_cost;
  }
  return result;
}

}  // namespace thunderbolt::baselines
