// YCSB-KV workload: a configurable read / blind-update / read-modify-write
// mix over N single-key records, with uniform, Zipfian or hotspot key
// selection. This is the knob-heavy counterpart to SmallBank: batch
// scheduling quality is dominated by mix and skew, and YCSB lets the bench
// driver sweep both independently of transaction structure.
//
// Records are accounts "user<i>" (rank 0 hottest under skewed
// distributions), each holding one "user<i>/value" key initialized to
// kInitialValue. Operations are the kv.* contracts (contract/kv.h).
#ifndef THUNDERBOLT_WORKLOAD_YCSB_WORKLOAD_H_
#define THUNDERBOLT_WORKLOAD_YCSB_WORKLOAD_H_

#include <cstdint>
#include <string>

#include "common/zipfian.h"
#include "storage/kv_store.h"
#include "txn/transaction.h"
#include "workload/workload.h"

namespace thunderbolt::workload {

class YcsbWorkload final : public Workload {
 public:
  enum class Distribution { kUniform, kZipfian, kHotspot };

  /// Every record starts at this value; updates write in [1, kMaxValue] and
  /// RMWs add deltas in [1, kMaxDelta], so values stay non-negative — the
  /// invariant CheckInvariant enforces.
  static constexpr storage::Value kInitialValue = 100;
  static constexpr storage::Value kMaxValue = 1000;
  static constexpr storage::Value kMaxDelta = 5;

  explicit YcsbWorkload(const WorkloadOptions& options);

  Distribution distribution() const { return distribution_; }

  std::string name() const override { return "ycsb"; }

  /// Record (account) name for hotness rank `i`.
  static std::string RecordName(uint64_t i);

  void InitStore(storage::KVStore* store) const override;
  txn::Transaction Next() override;
  /// Single-record op on the shard's bucket; with probability
  /// cross_shard_ratio (and more than one shard) a kv.transfer from a
  /// record of `shard` to a record of another shard instead.
  txn::Transaction NextForShard(ShardId shard) override;

  /// All records still exist, the store holds exactly the seeded keys (no
  /// strays appeared), and every value is non-negative (update/RMW
  /// arguments are positive; transfers clamp at the source balance).
  /// Assumes the store was seeded by InitStore alone — YCSB owns its whole
  /// keyspace.
  Status CheckInvariant(const storage::KVStore& store) const override;

 protected:
  void RebuildShardBuckets() override;

 private:
  /// Hotness rank in [0, num_records) under the configured distribution.
  uint64_t SampleRank();
  /// Rank within `shard`'s non-empty bucket (per-shard sampling).
  uint64_t SampleBucketRank(ShardId shard);
  /// A record of `shard`'s bucket under the configured distribution.
  std::string SampleShardRecord(ShardId shard);
  txn::Transaction MakeOp(std::string record);
  txn::Transaction MakeTransfer(std::string from, std::string to);

  Distribution distribution_;
  ZipfianGenerator global_zipf_;
  uint64_t hot_set_size_;
};

}  // namespace thunderbolt::workload

#endif  // THUNDERBOLT_WORKLOAD_YCSB_WORKLOAD_H_
