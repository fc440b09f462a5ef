#include "workload/workload.h"

#include <cstdint>
#include <limits>
#include <memory>
#include <type_traits>
#include <utility>

#include "common/params.h"
#include "common/result.h"
#include "workload/smallbank_workload.h"
#include "workload/tpcc_workload.h"
#include "workload/ycsb_workload.h"

namespace thunderbolt::workload {

namespace {

Status Prefixed(const Status& error) {
  return Status::InvalidArgument("workload param " + error.message());
}

/// Parses `p` into `*out` by the field's type; a 32-bit field rejects
/// larger values.
template <typename T>
Status Set(const Param& p, T* out) {
  if constexpr (std::is_floating_point_v<T>) {
    const Result<double> v = ParseDouble(p);
    if (!v.ok()) return Prefixed(v.status());
    *out = *v;
  } else {
    const Result<uint64_t> v = ParseUint(p, std::numeric_limits<T>::max());
    if (!v.ok()) return Prefixed(v.status());
    *out = static_cast<T>(*v);
  }
  return Status::OK();
}

template <typename W>
std::unique_ptr<Workload> Make(const WorkloadOptions& options) {
  return std::make_unique<W>(options);
}

}  // namespace

Workload::Workload(const WorkloadOptions& options)
    : mapper_(options.num_shards), rng_(options.seed), options_(options) {}

void Workload::BuildShardBuckets(
    uint64_t count, const std::function<std::string(uint64_t)>& name,
    bool zipfian) {
  shard_buckets_.assign(options_.num_shards, {});
  for (uint64_t i = 0; i < count; ++i) {
    shard_buckets_[mapper_.ShardOfAccount(name(i))].push_back(i);
  }
  shard_zipf_.clear();
  if (!zipfian) return;
  shard_zipf_.reserve(options_.num_shards);
  for (const std::vector<uint64_t>& bucket : shard_buckets_) {
    shard_zipf_.emplace_back(bucket.empty() ? 1 : bucket.size(),
                             options_.theta);
  }
}

ShardId Workload::OtherShard(ShardId home) {
  ShardId other =
      static_cast<ShardId>(rng_.NextBounded(options_.num_shards - 1));
  if (other >= home) ++other;
  return other;
}

txn::Transaction Workload::NewTransaction(std::string contract) {
  txn::Transaction tx;
  tx.id = next_txn_id_++;
  tx.contract = std::move(contract);
  return tx;
}

ShardId Workload::HomeShard(const txn::Transaction& tx) const {
  if (tx.accounts.empty()) return 0;
  return mapper().ShardOfAccount(tx.accounts.front());
}

std::shared_ptr<placement::PlacementPolicy> InstallPlacement(
    Workload* workload, const std::string& policy_name,
    const std::string& policy_params, uint32_t num_shards) {
  placement::PlacementOptions options;
  options.num_shards = num_shards;
  options.params = policy_params;
  options.hint = [workload](const std::string& account) {
    return workload->PlacementHint(account);
  };
  std::shared_ptr<placement::PlacementPolicy> policy =
      placement::PlacementRegistry::Global().Create(policy_name, options);
  if (policy != nullptr) workload->SetPlacementPolicy(policy);
  return policy;
}

Status ApplyWorkloadParams(const std::string& spec, WorkloadOptions* options) {
  const Result<std::vector<Param>> params = ParseParams(spec);
  if (!params.ok()) return Prefixed(params.status());
  for (const Param& p : *params) {
    if (p.key == "num_records" || p.key == "num_accounts") {
      THUNDERBOLT_RETURN_NOT_OK(Set(p, &options->num_records));
    } else if (p.key == "theta") {
      THUNDERBOLT_RETURN_NOT_OK(Set(p, &options->theta));
    } else if (p.key == "read_ratio") {
      THUNDERBOLT_RETURN_NOT_OK(Set(p, &options->read_ratio));
    } else if (p.key == "cross_shard_ratio") {
      THUNDERBOLT_RETURN_NOT_OK(Set(p, &options->cross_shard_ratio));
    } else if (p.key == "num_shards") {
      THUNDERBOLT_RETURN_NOT_OK(Set(p, &options->num_shards));
    } else if (p.key == "seed") {
      THUNDERBOLT_RETURN_NOT_OK(Set(p, &options->seed));
    } else if (p.key == "distribution") {
      // Validate eagerly: YcsbWorkload would silently fall back to
      // zipfian on a typo.
      if (p.value != "uniform" && p.value != "zipfian" &&
          p.value != "hotspot") {
        return Status::InvalidArgument(
            "workload param distribution: unknown value \"" + p.value +
            "\" (uniform|zipfian|hotspot)");
      }
      options->distribution = p.value;
    } else if (p.key == "update_ratio") {
      THUNDERBOLT_RETURN_NOT_OK(Set(p, &options->update_ratio));
    } else if (p.key == "hotspot_op_fraction") {
      THUNDERBOLT_RETURN_NOT_OK(Set(p, &options->hotspot_op_fraction));
    } else if (p.key == "hotspot_set_fraction") {
      THUNDERBOLT_RETURN_NOT_OK(Set(p, &options->hotspot_set_fraction));
    } else if (p.key == "num_warehouses") {
      THUNDERBOLT_RETURN_NOT_OK(Set(p, &options->num_warehouses));
    } else if (p.key == "districts_per_warehouse") {
      THUNDERBOLT_RETURN_NOT_OK(Set(p, &options->districts_per_warehouse));
    } else if (p.key == "customers_per_district") {
      THUNDERBOLT_RETURN_NOT_OK(Set(p, &options->customers_per_district));
    } else if (p.key == "num_items") {
      THUNDERBOLT_RETURN_NOT_OK(Set(p, &options->num_items));
    } else if (p.key == "payment_ratio") {
      THUNDERBOLT_RETURN_NOT_OK(Set(p, &options->payment_ratio));
    } else {
      return Status::InvalidArgument("unknown workload param \"" + p.key +
                                     "\"");
    }
  }
  return Status::OK();
}

std::vector<txn::Transaction> Workload::MakeBatch(size_t count) {
  std::vector<txn::Transaction> batch;
  batch.reserve(count);
  for (size_t i = 0; i < count; ++i) batch.push_back(Next());
  return batch;
}

std::vector<txn::Transaction> Workload::MakeShardBatch(ShardId shard,
                                                       size_t count) {
  std::vector<txn::Transaction> batch;
  batch.reserve(count);
  for (size_t i = 0; i < count; ++i) batch.push_back(NextForShard(shard));
  return batch;
}

WorkloadRegistry& WorkloadRegistry::Global() {
  static WorkloadRegistry* registry = [] {
    auto* r = new WorkloadRegistry();
    r->Register("smallbank", Make<SmallBankWorkload>);
    r->Register("ycsb", Make<YcsbWorkload>);
    r->Register("tpcc_lite", Make<TpccLiteWorkload>);
    return r;
  }();
  return *registry;
}

}  // namespace thunderbolt::workload
