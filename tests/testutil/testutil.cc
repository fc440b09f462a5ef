#include "testutil/testutil.h"

namespace thunderbolt::testutil {

storage::MemKVStore MakeStore(
    std::vector<std::pair<std::string, storage::Value>> entries) {
  storage::MemKVStore store;
  for (const auto& [key, value] : entries) {
    store.Put(key, value);
  }
  return store;
}

workload::WorkloadOptions WorkloadTestOptions(uint64_t num_records,
                                              uint64_t seed,
                                              double read_ratio,
                                              double theta) {
  workload::WorkloadOptions options;
  options.num_records = num_records;
  options.seed = seed;
  options.read_ratio = read_ratio;
  options.theta = theta;
  return options;
}

workload::SmallBankWorkload MakeSmallBank(storage::MemKVStore* store,
                                          uint64_t num_accounts,
                                          uint64_t seed,
                                          double read_ratio,
                                          double theta) {
  workload::SmallBankWorkload w(
      WorkloadTestOptions(num_accounts, seed, read_ratio, theta));
  if (store != nullptr) w.InitStore(store);
  return w;
}

std::vector<txn::Transaction> MakeSmallBankBatch(
    storage::MemKVStore* store, size_t count,
    const workload::WorkloadOptions& options) {
  workload::SmallBankWorkload w(options);
  if (store != nullptr) w.InitStore(store);
  return w.MakeBatch(count);
}

}  // namespace thunderbolt::testutil
