// SmallBank workload generation (paper sections 11.2 and 12).
//
// Transactions mix GetBalance (probability Pr, read-only) and SendPayment
// (probability 1-Pr, read-modify-write on two accounts), with accounts
// drawn from a Zipfian distribution (theta controls contention; the paper
// uses theta = 0.85). For the sharded system evaluation a fraction P of
// transactions is made cross-shard (accounts in two different shards,
// Figure 14). Account keys hash-partition across shards via
// txn::ShardMapper.
#ifndef THUNDERBOLT_WORKLOAD_SMALLBANK_WORKLOAD_H_
#define THUNDERBOLT_WORKLOAD_SMALLBANK_WORKLOAD_H_

#include <cstdint>
#include <string>

#include "common/zipfian.h"
#include "storage/kv_store.h"
#include "txn/transaction.h"
#include "workload/workload.h"

namespace thunderbolt::workload {

/// Generates over options().num_records accounts at skew options().theta,
/// with Pr = options().read_ratio and P = options().cross_shard_ratio.
class SmallBankWorkload final : public Workload {
 public:
  /// Every account's seeded checking and savings balance.
  static constexpr storage::Value kInitialChecking = 10000;
  static constexpr storage::Value kInitialSavings = 10000;

  explicit SmallBankWorkload(const WorkloadOptions& options);

  std::string name() const override { return "smallbank"; }

  /// Seeds every account's checking and savings balance in `store`.
  void InitStore(storage::KVStore* store) const override;

  /// Account name for global Zipfian rank `i` (rank 0 is hottest).
  static std::string AccountName(uint64_t i);

  /// Next transaction in the global mix (used by the CE benchmarks where
  /// sharding is not involved).
  txn::Transaction Next() override;

  /// Next transaction homed at `shard`: single-shard transactions touch
  /// only accounts of that shard; with probability cross_shard_ratio the
  /// transaction instead spans `shard` and one other shard.
  txn::Transaction NextForShard(ShardId shard) override;

  /// Payment-pair locality: "acct<2i>" and "acct<2i+1>" share a group, so
  /// the "locality" placement policy co-locates each pair. Note this is
  /// structural grouping only: SmallBank samples both payment accounts
  /// from the live shard buckets, so unlike TPC-C-lite (whose warehouse/
  /// district/customer accounts place independently) its cross-shard
  /// fraction is generator-determined and no placement changes it.
  std::string PlacementHint(const std::string& account) const override;

  /// Sum of all balances; conserved by every SmallBank mix that excludes
  /// WriteCheck and failed sends (used by invariant tests).
  storage::Value TotalBalance(const storage::KVStore& store) const;

  /// Total-balance conservation: the GetBalance/SendPayment mix never
  /// creates or destroys money, so the sum must equal the seeded total.
  Status CheckInvariant(const storage::KVStore& store) const override;

 protected:
  void RebuildShardBuckets() override;

 private:
  std::string SampleGlobalAccount();
  std::string SampleShardAccount(ShardId shard);
  txn::Transaction MakeGetBalance(std::string account);
  txn::Transaction MakeSendPayment(std::string from, std::string to);

  ZipfianGenerator global_zipf_;
};

}  // namespace thunderbolt::workload

#endif  // THUNDERBOLT_WORKLOAD_SMALLBANK_WORKLOAD_H_
