#include "workload/ycsb_workload.h"

#include <algorithm>
#include <vector>

#include "contract/kv.h"

namespace thunderbolt::workload {

namespace {

YcsbWorkload::Distribution ParseDistribution(const std::string& name) {
  if (name == "uniform") return YcsbWorkload::Distribution::kUniform;
  if (name == "hotspot") return YcsbWorkload::Distribution::kHotspot;
  // Default (and explicit "zipfian").
  return YcsbWorkload::Distribution::kZipfian;
}

}  // namespace

YcsbWorkload::YcsbWorkload(const WorkloadOptions& options)
    : Workload(options),
      distribution_(ParseDistribution(options.distribution)),
      global_zipf_(options.num_records, options.theta),
      hot_set_size_(std::max<uint64_t>(
          1, static_cast<uint64_t>(static_cast<double>(options.num_records) *
                                   options.hotspot_set_fraction))) {
  RebuildShardBuckets();
}

void YcsbWorkload::RebuildShardBuckets() {
  BuildShardBuckets(options().num_records, RecordName, /*zipfian=*/true);
}

std::string YcsbWorkload::RecordName(uint64_t i) {
  return "user" + std::to_string(i);
}

void YcsbWorkload::InitStore(storage::KVStore* store) const {
  store->Reserve(store->size() + options().num_records);
  for (uint64_t i = 0; i < options().num_records; ++i) {
    store->Put(contract::KvValueKey(RecordName(i)), kInitialValue);
  }
}

uint64_t YcsbWorkload::SampleRank() {
  switch (distribution_) {
    case Distribution::kUniform:
      return rng_.NextBounded(options().num_records);
    case Distribution::kZipfian:
      return global_zipf_.Next(rng_);
    case Distribution::kHotspot:
      if (rng_.NextBool(options().hotspot_op_fraction)) {
        return rng_.NextBounded(hot_set_size_);
      }
      return rng_.NextBounded(options().num_records);
  }
  return 0;  // Unreachable.
}

uint64_t YcsbWorkload::SampleBucketRank(ShardId shard) {
  const uint64_t bucket_size = shard_buckets_[shard].size();
  switch (distribution_) {
    case Distribution::kUniform:
      return rng_.NextBounded(bucket_size);
    case Distribution::kZipfian:
      return shard_zipf_[shard].Next(rng_);
    case Distribution::kHotspot: {
      // Scale the hot set to the bucket, keeping at least one hot record.
      const uint64_t hot = std::max<uint64_t>(
          1, hot_set_size_ * bucket_size /
                 std::max<uint64_t>(1, options().num_records));
      if (rng_.NextBool(options().hotspot_op_fraction)) {
        return rng_.NextBounded(std::min(hot, bucket_size));
      }
      return rng_.NextBounded(bucket_size);
    }
  }
  return 0;  // Unreachable.
}

txn::Transaction YcsbWorkload::MakeOp(std::string record) {
  txn::Transaction tx = NewTransaction(contract::kKvRead);
  tx.accounts.push_back(std::move(record));
  if (rng_.NextBool(options().read_ratio)) return tx;
  if (rng_.NextBool(options().update_ratio)) {
    tx.contract = contract::kKvUpdate;
    tx.params.push_back(
        static_cast<storage::Value>(rng_.NextRange(1, kMaxValue)));
  } else {
    tx.contract = contract::kKvRmw;
    tx.params.push_back(
        static_cast<storage::Value>(rng_.NextRange(1, kMaxDelta)));
  }
  return tx;
}

txn::Transaction YcsbWorkload::MakeTransfer(std::string from, std::string to) {
  txn::Transaction tx = NewTransaction(contract::kKvTransfer);
  tx.accounts.push_back(std::move(from));
  tx.accounts.push_back(std::move(to));
  tx.params.push_back(
      static_cast<storage::Value>(rng_.NextRange(1, kMaxDelta)));
  return tx;
}

txn::Transaction YcsbWorkload::Next() {
  return MakeOp(RecordName(SampleRank()));
}

std::string YcsbWorkload::SampleShardRecord(ShardId shard) {
  const std::vector<uint64_t>& bucket = shard_buckets_[shard];
  if (bucket.empty()) return RecordName(0);
  return RecordName(bucket[SampleBucketRank(shard)]);
}

txn::Transaction YcsbWorkload::NextForShard(ShardId shard) {
  // The extra dice roll is gated on a positive ratio so configurations
  // without cross-shard traffic keep their pre-existing RNG stream.
  if (options().num_shards > 1 && options().cross_shard_ratio > 0 &&
      rng_.NextBool(options().cross_shard_ratio)) {
    // kv.transfer from a record homed here to a record of another shard.
    std::string from = SampleShardRecord(shard);
    return MakeTransfer(std::move(from), SampleShardRecord(OtherShard(shard)));
  }
  return MakeOp(SampleShardRecord(shard));
}

Status YcsbWorkload::CheckInvariant(const storage::KVStore& store) const {
  // kv.* contracts only ever write the seeded record keys, so any size
  // change means an engine manufactured or lost a key.
  if (store.size() != options().num_records) {
    return Status::Corruption(
        "ycsb: store holds " + std::to_string(store.size()) +
        " keys, expected " + std::to_string(options().num_records));
  }
  for (uint64_t i = 0; i < options().num_records; ++i) {
    auto vv = store.Get(contract::KvValueKey(RecordName(i)));
    if (!vv.ok()) {
      return Status::Corruption("ycsb: record " + RecordName(i) +
                                        " disappeared");
    }
    if (vv->value < 0) {
      return Status::Corruption(
          "ycsb: record " + RecordName(i) + " went negative: " +
          std::to_string(vv->value));
    }
  }
  return Status::OK();
}

}  // namespace thunderbolt::workload
