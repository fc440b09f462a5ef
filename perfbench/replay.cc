#include "replay.h"

#include <memory>
#include <utility>
#include <vector>

#include "baselines/serial_executor.h"
#include "ce/engine_registry.h"
#include "ce/executor_pool.h"
#include "contract/contract.h"
#include "core/cross_shard_executor.h"
#include "core/payload.h"
#include "core/validator.h"
#include "crypto/signature.h"
#include "placement/placement.h"
#include "storage/kv_store.h"
#include "timed_layers.h"

namespace perfbench {

namespace tb = thunderbolt;

namespace {

constexpr double kBudgetS = 1.0;
constexpr uint32_t kMaxBlocks = 4000;

/// Runs `stage` and adds its wall time, net of the time it spent inside the
/// timed store and of the timers around those store calls, to *self_ns.
/// Returns what `stage` returns.
template <typename Stage>
auto TimeStage(const SpanCost& span_cost, uint64_t* self_ns, Stage&& stage) {
  const LayerClock store0 = StoreClock();
  const uint64_t start = NowNs();
  auto result = stage();
  const double total = static_cast<double>(NowNs() - start);
  const double in_store = static_cast<double>(StoreClock().ns - store0.ns);
  const double timer_cost = (span_cost.total_ns - span_cost.inside_ns) *
                            static_cast<double>(StoreClock().spans -
                                                store0.spans);
  const double self = total - in_store - timer_cost;
  *self_ns += self > 0 ? static_cast<uint64_t>(self) : 0;
  return result;
}

}  // namespace

ReplayCosts RunReplay(const tb::core::ThunderboltConfig& config,
                      const std::string& workload_name,
                      tb::workload::WorkloadOptions options,
                      const SpanCost& span_cost) {
  ReplayCosts costs;
  const uint32_t n = config.n;
  const uint32_t min_blocks = 2 * n;
  options.num_shards = n;
  std::unique_ptr<tb::workload::Workload> workload =
      tb::workload::WorkloadRegistry::Global().Create(workload_name, options);
  std::shared_ptr<tb::placement::PlacementPolicy> policy =
      tb::workload::InstallPlacement(workload.get(), config.placement,
                                     config.placement_params, n);
  std::unique_ptr<tb::storage::KVStore> store =
      tb::storage::StoreRegistry::Global().Create("timed:inner=" +
                                                  config.store);
  if (workload == nullptr || policy == nullptr || store == nullptr) {
    costs.failure = "replay set-up";
    return costs;
  }
  workload->InitStore(store.get());
  const std::shared_ptr<const tb::contract::Registry> registry =
      tb::contract::Registry::CreateDefault();
  std::unique_ptr<tb::ce::ExecutorPool> pool = tb::ce::CreateExecutorPool(
      "sim", config.num_executors, config.exec_costs);
  const tb::core::CrossShardExecutor cross_executor(
      registry.get(), config.exec_costs.op_cost, /*num_workers=*/4,
      &workload->mapper());
  const tb::crypto::KeyDirectory keys =
      tb::crypto::KeyDirectory::Create(n, config.seed);
  const uint32_t quorum = tb::QuorumSize(n);
  tb::placement::AccessTracker tracker;
  const bool serial = config.mode == tb::core::ExecutionMode::kTusk;

  const uint64_t deadline =
      NowNs() + static_cast<uint64_t>(kBudgetS * 1e9);
  for (uint32_t b = 0; b < kMaxBlocks; ++b) {
    if (b >= min_blocks && NowNs() >= deadline) break;
    const tb::ShardId shard = b % n;
    std::vector<tb::txn::Transaction> batch =
        workload->MakeShardBatch(shard, config.batch_size);
    tb::core::ThunderboltPayload payload;
    payload.shard = shard;

    if (serial) {
      TimeStage(span_cost, &costs.serial_ns, [&] {
        return tb::baselines::ExecuteSerial(*registry, batch, store.get(),
                                            config.exec_costs.op_cost);
      });
      costs.serial_txns += batch.size();
      payload.cross_shard = std::move(batch);
    } else {
      std::vector<tb::txn::Transaction> singles;
      for (tb::txn::Transaction& tx : batch) {
        if (workload->mapper().IsSingleShard(tx)) {
          singles.push_back(std::move(tx));
        } else {
          payload.cross_shard.push_back(std::move(tx));
        }
      }
      if (!singles.empty()) {
        const uint32_t size = static_cast<uint32_t>(singles.size());
        std::unique_ptr<tb::ce::BatchEngine> engine =
            tb::ce::EngineRegistry::Global().Create("ce", store.get(), size);
        const tb::Result<tb::ce::BatchExecutionResult> preplay =
            TimeStage(span_cost, &costs.ce_ns, [&] {
              return pool->Run(*engine, *registry, singles, 0);
            });
        if (!preplay.ok()) {
          costs.failure = "replay preplay: " + preplay.status().ToString();
          return costs;
        }
        costs.ce_txns += size;
        payload.preplayed.reserve(size);
        for (tb::ce::TxnSlot slot : preplay.value().order) {
          tb::core::PreplayedTxn p;
          p.tx = singles[slot];
          p.rw_set = preplay.value().records[slot].rw_set;
          p.emitted = preplay.value().records[slot].emitted;
          payload.preplayed.push_back(std::move(p));
        }
        const tb::core::ValidationResult vr =
            TimeStage(span_cost, &costs.validate_ns, [&] {
              return tb::core::ValidatePreplay(*registry, payload.preplayed,
                                               *store);
            });
        if (!vr.valid) {
          costs.failure = "replay validation: " + vr.failure;
          return costs;
        }
        store->Write(vr.writes);
        costs.validate_txns += size;
      }
      if (!payload.cross_shard.empty()) {
        std::vector<tb::ShardId> homes;
        homes.reserve(payload.cross_shard.size());
        for (const tb::txn::Transaction& tx : payload.cross_shard) {
          homes.push_back(workload->HomeShard(tx));
        }
        TimeStage(span_cost, &costs.cross_ns, [&] {
          return cross_executor.Execute(payload.cross_shard, store.get(),
                                        &homes, &tracker);
        });
        costs.cross_txns += payload.cross_shard.size();
      }
    }

    const bool signatures_ok = TimeStage(span_cost, &costs.crypto_ns, [&] {
      const tb::Hash256 digest = payload.ContentDigest();
      std::vector<tb::crypto::Signature> votes;
      votes.reserve(n);
      for (tb::ReplicaId r = 0; r < n; ++r) {
        votes.push_back(keys.key(r).Sign(digest));
      }
      bool ok = true;
      for (uint32_t checker = 0; checker <= n; ++checker) {
        for (uint32_t q = 0; q < quorum; ++q) {
          ok &= keys.Verify(digest, votes[q]);
        }
      }
      return ok;
    });
    if (!signatures_ok) {
      costs.failure = "replay signature verification";
      return costs;
    }
    ++costs.blocks;
  }
  return costs;
}

}  // namespace perfbench
