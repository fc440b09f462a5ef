#include "timed_layers.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "storage/kv_store.h"
#include "workload/workload.h"

namespace perfbench {

namespace storage = thunderbolt::storage;
namespace workload = thunderbolt::workload;
namespace txn = thunderbolt::txn;
using thunderbolt::Result;
using thunderbolt::ShardId;
using thunderbolt::Status;

LayerClock& StoreClock() {
  static LayerClock clock;
  return clock;
}

LayerClock& WorkloadClock() {
  static LayerClock clock;
  return clock;
}

namespace {

/// Adds the wall time of its scope and `units` to `clock`.
class Span {
 public:
  Span(LayerClock& clock, uint64_t units)
      : clock_(clock), units_(units), start_(NowNs()) {}
  ~Span() {
    clock_.ns += NowNs() - start_;
    clock_.units += units_;
    ++clock_.spans;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  LayerClock& clock_;
  uint64_t units_;
  uint64_t start_;
};

class TimedStore final : public storage::KVStore {
 public:
  explicit TimedStore(std::unique_ptr<storage::KVStore> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  Result<storage::VersionedValue> Get(const storage::Key& key) const override {
    Span span(StoreClock(), 1);
    return inner_->Get(key);
  }
  storage::Value GetOrDefault(const storage::Key& key,
                              storage::Value default_value) const override {
    Span span(StoreClock(), 1);
    return inner_->GetOrDefault(key, default_value);
  }
  Status Put(const storage::Key& key, storage::Value value) override {
    Span span(StoreClock(), 1);
    return inner_->Put(key, value);
  }
  Status Delete(const storage::Key& key) override {
    Span span(StoreClock(), 1);
    return inner_->Delete(key);
  }
  Status Write(const storage::WriteBatch& batch) override {
    Span span(StoreClock(), batch.size());
    return inner_->Write(batch);
  }
  Status RestoreEntry(const storage::Key& key,
                      const storage::VersionedValue& vv) override {
    return inner_->RestoreEntry(key, vv);
  }
  Status Flush() override { return inner_->Flush(); }
  size_t size() const override { return inner_->size(); }
  std::vector<storage::ScanEntry> Scan(const storage::Key& begin,
                                       const storage::Key& end,
                                       size_t limit) const override {
    return inner_->Scan(begin, end, limit);
  }
  std::shared_ptr<const storage::StoreSnapshot> Snapshot() const override {
    return inner_->Snapshot();
  }
  std::unique_ptr<storage::KVStore> Fork() const override {
    return inner_->Fork();
  }
  void Reserve(size_t expected_keys) override {
    inner_->Reserve(expected_keys);
  }
  uint64_t ContentFingerprint() const override {
    return inner_->ContentFingerprint();
  }
  storage::StoreStats Stats() const override { return inner_->Stats(); }

 private:
  std::unique_ptr<storage::KVStore> inner_;
};

class TimedWorkload final : public workload::Workload {
 public:
  TimedWorkload(std::unique_ptr<workload::Workload> inner, uint32_t num_shards)
      : Workload(num_shards), inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  void InitStore(storage::KVStore* store) const override {
    inner_->InitStore(store);
  }
  txn::Transaction Next() override {
    Span span(WorkloadClock(), 1);
    return inner_->Next();
  }
  txn::Transaction NextForShard(ShardId shard) override {
    Span span(WorkloadClock(), 1);
    return inner_->NextForShard(shard);
  }
  std::vector<txn::Transaction> MakeBatch(size_t count) override {
    Span span(WorkloadClock(), count);
    return inner_->MakeBatch(count);
  }
  std::vector<txn::Transaction> MakeShardBatch(ShardId shard,
                                               size_t count) override {
    Span span(WorkloadClock(), count);
    return inner_->MakeShardBatch(shard, count);
  }
  std::string PlacementHint(const std::string& account) const override {
    return inner_->PlacementHint(account);
  }
  double CrossShardFraction() const override {
    return inner_->CrossShardFraction();
  }
  ShardId HomeShard(const txn::Transaction& tx) const override {
    return inner_->HomeShard(tx);
  }
  Status CheckInvariant(const storage::KVStore& store) const override {
    return inner_->CheckInvariant(store);
  }

 protected:
  void RebuildShardBuckets() override {
    // The policy is owned by the cluster and by this wrapper's own mapper,
    // both of which outlive inner_, so the inner workload may hold it
    // through a non-owning alias.
    inner_->SetPlacementPolicy(
        std::shared_ptr<const thunderbolt::placement::PlacementPolicy>(
            std::shared_ptr<void>(), &mapper_.policy()));
  }

 private:
  std::unique_ptr<workload::Workload> inner_;
};

}  // namespace

SpanCost MeasureSpanCost() {
  constexpr int kRounds = 21;
  constexpr uint64_t kSpansPerRound = 2000;
  std::vector<double> inside, total;
  for (int round = 0; round < kRounds; ++round) {
    LayerClock clock;
    const uint64_t start = NowNs();
    for (uint64_t i = 0; i < kSpansPerRound; ++i) Span span(clock, 1);
    const uint64_t elapsed = NowNs() - start;
    inside.push_back(static_cast<double>(clock.ns) / kSpansPerRound);
    total.push_back(static_cast<double>(elapsed) / kSpansPerRound);
  }
  const auto median = [](std::vector<double>& v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  return SpanCost{median(inside), median(total)};
}

uint64_t NetNs(const LayerClock& clock, const SpanCost& cost) {
  const double net = static_cast<double>(clock.ns) -
                     cost.inside_ns * static_cast<double>(clock.spans);
  return net > 0 ? static_cast<uint64_t>(net) : 0;
}

void RegisterTimedLayers() {
  storage::StoreRegistry::Global().Register(
      "timed",
      [](const storage::StoreOptions& options)
          -> std::unique_ptr<storage::KVStore> {
        std::string inner_spec;
        for (const auto& [key, value] :
             storage::ParseStoreParams(options.params)) {
          if (key != "inner") return nullptr;
          inner_spec = value;
        }
        storage::StoreOptions inner_options = options;
        inner_options.params.clear();
        std::unique_ptr<storage::KVStore> inner =
            storage::StoreRegistry::Global().Create(inner_spec, inner_options);
        if (inner == nullptr) return nullptr;
        return std::make_unique<TimedStore>(std::move(inner));
      });

  workload::WorkloadRegistry& registry = workload::WorkloadRegistry::Global();
  for (const std::string& name : registry.Names()) {
    registry.Register(
        "timed." + name,
        [name](const workload::WorkloadOptions& options)
            -> std::unique_ptr<workload::Workload> {
          std::unique_ptr<workload::Workload> inner =
              workload::WorkloadRegistry::Global().Create(name, options);
          if (inner == nullptr) return nullptr;
          return std::make_unique<TimedWorkload>(std::move(inner),
                                                 options.num_shards);
        });
  }
}

}  // namespace perfbench
