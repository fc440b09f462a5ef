#include "workload/smallbank_workload.h"

#include <cassert>
#include <cerrno>
#include <cstdlib>
#include <vector>

#include "contract/smallbank.h"

namespace thunderbolt::workload {

SmallBankWorkload::SmallBankWorkload(const WorkloadOptions& options)
    : Workload(options), global_zipf_(options.num_records, options.theta) {
  RebuildShardBuckets();
}

void SmallBankWorkload::RebuildShardBuckets() {
  // Zipfian per bucket, so per-shard sampling keeps the skew profile.
  BuildShardBuckets(options().num_records, AccountName, /*zipfian=*/true);
}

std::string SmallBankWorkload::AccountName(uint64_t i) {
  return "acct" + std::to_string(i);
}

std::string SmallBankWorkload::PlacementHint(const std::string& account) const {
  // "acct<N>" pairs with its payment partner "acct<N ^ 1>": both map to
  // the even-numbered group member. Unknown names group with themselves.
  if (account.rfind("acct", 0) != 0) return account;
  errno = 0;
  char* end = nullptr;
  unsigned long long i = std::strtoull(account.c_str() + 4, &end, 10);
  if (end == account.c_str() + 4 || *end != '\0' || errno == ERANGE) {
    return account;
  }
  return AccountName(i & ~1ULL);
}

void SmallBankWorkload::InitStore(storage::KVStore* store) const {
  store->Reserve(store->size() + 2 * options().num_records);
  for (uint64_t i = 0; i < options().num_records; ++i) {
    std::string account = AccountName(i);
    store->Put(txn::CheckingKey(account), kInitialChecking);
    store->Put(txn::SavingsKey(account), kInitialSavings);
  }
}

std::string SmallBankWorkload::SampleGlobalAccount() {
  return AccountName(global_zipf_.Next(rng_));
}

std::string SmallBankWorkload::SampleShardAccount(ShardId shard) {
  const std::vector<uint64_t>& bucket = shard_buckets_[shard];
  if (bucket.empty()) return AccountName(0);
  uint64_t rank = shard_zipf_[shard].Next(rng_);
  return AccountName(bucket[rank]);
}

txn::Transaction SmallBankWorkload::MakeGetBalance(std::string account) {
  txn::Transaction tx = NewTransaction(contract::kGetBalance);
  tx.accounts.push_back(std::move(account));
  return tx;
}

txn::Transaction SmallBankWorkload::MakeSendPayment(std::string from,
                                                    std::string to) {
  txn::Transaction tx = NewTransaction(contract::kSendPayment);
  tx.accounts.push_back(std::move(from));
  tx.accounts.push_back(std::move(to));
  tx.params.push_back(static_cast<storage::Value>(rng_.NextRange(1, 5)));
  return tx;
}

txn::Transaction SmallBankWorkload::Next() {
  if (rng_.NextBool(options().read_ratio)) {
    return MakeGetBalance(SampleGlobalAccount());
  }
  std::string from = SampleGlobalAccount();
  std::string to = SampleGlobalAccount();
  // Distinct accounts keep the transfer meaningful.
  for (int attempts = 0; to == from && attempts < 16; ++attempts) {
    to = SampleGlobalAccount();
  }
  return MakeSendPayment(std::move(from), std::move(to));
}

txn::Transaction SmallBankWorkload::NextForShard(ShardId shard) {
  assert(shard < options().num_shards);
  // The cross-shard coin is drawn even at ratio 0 (unlike YCSB and
  // TPC-C-lite), so every multi-shard stream keeps its place.
  if (options().num_shards > 1 &&
      rng_.NextBool(options().cross_shard_ratio)) {
    // Cross-shard SendPayment: one account here, one in another shard.
    std::string from = SampleShardAccount(shard);
    std::string to = SampleShardAccount(OtherShard(shard));
    return MakeSendPayment(std::move(from), std::move(to));
  }
  if (rng_.NextBool(options().read_ratio)) {
    return MakeGetBalance(SampleShardAccount(shard));
  }
  std::string from = SampleShardAccount(shard);
  std::string to = SampleShardAccount(shard);
  for (int attempts = 0; to == from && attempts < 16; ++attempts) {
    to = SampleShardAccount(shard);
  }
  return MakeSendPayment(std::move(from), std::move(to));
}

storage::Value SmallBankWorkload::TotalBalance(
    const storage::KVStore& store) const {
  storage::Value total = 0;
  for (uint64_t i = 0; i < options().num_records; ++i) {
    std::string account = AccountName(i);
    total += store.GetOrDefault(txn::CheckingKey(account), 0);
    total += store.GetOrDefault(txn::SavingsKey(account), 0);
  }
  return total;
}

Status SmallBankWorkload::CheckInvariant(
    const storage::KVStore& store) const {
  storage::Value expected =
      static_cast<storage::Value>(options().num_records) *
      (kInitialChecking + kInitialSavings);
  storage::Value actual = TotalBalance(store);
  if (actual != expected) {
    return Status::Corruption(
        "smallbank: total balance " + std::to_string(actual) +
        " != seeded total " + std::to_string(expected));
  }
  return Status::OK();
}

}  // namespace thunderbolt::workload
