// workload_tour: walks every workload registered in WorkloadRegistry
// first through the Thunderbolt CE in isolation, then through a sharded
// 4-replica cluster, printing throughput and the invariant verdict. The
// smallest demonstration of the pluggable workload framework: nothing
// here names a concrete workload — new registrations show up
// automatically, in all legs. The final leg re-runs one cluster with
// lifecycle tracing enabled and summarizes the captured events (the
// smallest demonstration of ThunderboltConfig::obs).
#include <cstdio>
#include <memory>

#include "ce/engine_registry.h"
#include "ce/sim_executor_pool.h"
#include "contract/contract.h"
#include "core/cluster.h"
#include "obs/obs.h"
#include "workload/workload.h"

int main() {
  using namespace thunderbolt;

  workload::WorkloadOptions options;
  options.num_records = 500;
  options.seed = 7;
  options.num_warehouses = 1;
  options.customers_per_district = 10;
  options.num_items = 50;
  constexpr uint32_t kBatchSize = 150;

  auto registry = contract::Registry::CreateDefault();
  ce::SimExecutorPool pool(8, ce::ExecutionCostModel{});

  std::printf("%-12s %12s %12s %12s  %s\n", "workload", "txns", "tput(tps)",
              "re-execs", "invariant");
  for (const std::string& name :
       workload::WorkloadRegistry::Global().Names()) {
    auto w = workload::WorkloadRegistry::Global().Create(name, options);
    storage::MemKVStore store;
    w->InitStore(&store);
    SimTime total_time = 0;
    uint64_t total_aborts = 0, total_txns = 0;
    for (int batch_idx = 0; batch_idx < 3; ++batch_idx) {
      auto batch = w->MakeBatch(kBatchSize);
      std::unique_ptr<ce::BatchEngine> engine =
          ce::EngineRegistry::Global().Create("ce", &store, kBatchSize);
      auto r = pool.Run(*engine, *registry, batch);
      if (!r.ok()) {
        std::fprintf(stderr, "%s failed: %s\n", name.c_str(),
                     r.status().ToString().c_str());
        return 1;
      }
      Status applied = store.Write(engine->FinalWrites());
      if (!applied.ok()) {
        std::fprintf(stderr, "%s write-back failed: %s\n", name.c_str(),
                     applied.ToString().c_str());
        return 1;
      }
      total_time += r->duration;
      total_aborts += r->total_aborts;
      total_txns += kBatchSize;
    }
    Status invariant = w->CheckInvariant(store);
    std::printf("%-12s %12llu %12.0f %12llu  %s\n", name.c_str(),
                static_cast<unsigned long long>(total_txns),
                static_cast<double>(total_txns) / ToSeconds(total_time),
                static_cast<unsigned long long>(total_aborts),
                invariant.ok() ? "ok" : invariant.ToString().c_str());
    if (!invariant.ok()) return 1;
  }
  std::printf("\nAll workloads executed through the CE.\n");

  // Leg 2: the same registry names on a sharded 4-replica cluster (one
  // shard per replica, 10% deliberate cross-shard traffic).
  std::printf("\n%-12s %12s %12s %12s  %s\n", "workload", "single", "cross",
              "tput(tps)", "invariant");
  for (const std::string& name :
       workload::WorkloadRegistry::Global().Names()) {
    core::ThunderboltConfig cfg;
    cfg.n = 4;
    cfg.batch_size = 50;
    cfg.proposal_prep_cost = Millis(5);
    workload::WorkloadOptions cluster_options = options;
    cluster_options.cross_shard_ratio = 0.1;
    core::Cluster cluster(cfg, name, cluster_options);
    core::ClusterResult r = cluster.Run(Seconds(2));
    Status invariant = cluster.CheckInvariant();
    std::printf("%-12s %12llu %12llu %12.0f  %s\n", name.c_str(),
                static_cast<unsigned long long>(r.committed_single),
                static_cast<unsigned long long>(r.committed_cross),
                r.throughput_tps,
                invariant.ok() ? "ok" : invariant.ToString().c_str());
    if (!invariant.ok()) return 1;
    if (r.committed_single + r.committed_cross == 0) {
      std::fprintf(stderr, "%s committed nothing on the cluster\n",
                   name.c_str());
      return 1;
    }
  }
  std::printf("\nAll workloads ran sharded on the cluster.\n");

  // Leg 3: the same cluster with tracing on. Every committed single-shard
  // transaction leaves a lifecycle span in the ring; the export is the
  // Chrome trace-event JSON the benches write via --trace-out.
  {
    core::ThunderboltConfig cfg;
    cfg.n = 4;
    cfg.batch_size = 50;
    cfg.proposal_prep_cost = Millis(5);
    cfg.obs.trace = true;
    workload::WorkloadOptions cluster_options = options;
    cluster_options.cross_shard_ratio = 0.1;
    core::Cluster cluster(cfg, "smallbank", cluster_options);
    core::ClusterResult r = cluster.Run(Seconds(2));
    const obs::RingTracer* ring = cluster.obs().ring();
    if (ring == nullptr) {
      std::fprintf(stderr, "tracing was enabled but no ring exists\n");
      return 1;
    }
    uint64_t spans = 0, restarts = 0, commits = 0;
    for (const obs::TraceEvent& e : ring->Snapshot()) {
      spans += e.kind == obs::EventKind::kTxnSpan ? 1 : 0;
      restarts += e.kind == obs::EventKind::kTxnRestart ? 1 : 0;
      commits += e.kind == obs::EventKind::kTxnCommit ? 1 : 0;
    }
    std::printf(
        "\nTraced smallbank cluster: %llu events (%llu txn spans, %llu "
        "commits, %llu restarts), %llu committed single-shard\n",
        static_cast<unsigned long long>(ring->total_recorded()),
        static_cast<unsigned long long>(spans),
        static_cast<unsigned long long>(commits),
        static_cast<unsigned long long>(restarts),
        static_cast<unsigned long long>(r.committed_single));
    if (spans < r.committed_single) {
      std::fprintf(stderr,
                   "expected at least one span per committed transaction\n");
      return 1;
    }
    const std::string trace_json = ring->ToChromeJson();
    std::printf("Chrome trace export: %zu bytes (write it with a bench's "
                "--trace-out and load at ui.perfetto.dev)\n",
                trace_json.size());
  }
  return 0;
}
