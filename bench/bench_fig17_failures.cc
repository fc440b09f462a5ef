// Figure 17: throughput & latency vs cross-shard ratio on 16 replicas when
// f replicas (f = 1 or 2) crash during the run, compared with the failure-
// free Thunderbolt and Tusk. `--workload <name>` sweeps any registered
// workload.
#include "bench/bench_util.h"
#include "core/cluster.h"

namespace thunderbolt {
namespace {

void RunSweep(const bench::ClusterSystem& system, uint32_t failures,
              const std::string& workload_name,
              workload::WorkloadOptions options,
              const bench::PlacementSelection& placement,
              const bench::StoreSelection& store,
              const bench::ServiceSelection& service, bench::ObsSelection* obs,
              SimTime duration, bench::Table& table,
              obs::LatencyBreakdown* phases) {
  for (double pct : {0.0, 0.04, 0.08, 0.20, 0.60, 1.0}) {
    core::ThunderboltConfig cfg;
    cfg.n = 16;
    system.ApplyTo(&cfg);
    cfg.batch_size = 500;
    cfg.seed = 101;
    placement.ApplyTo(&cfg);
    store.ApplyTo(&cfg);
    service.ApplyTo(&cfg);
    obs->ApplyTo(&cfg);
    options.cross_shard_ratio = pct;
    core::Cluster cluster(cfg, workload_name, options);
    // Crash the highest-numbered replicas shortly after startup (the
    // observer, replica 0, must stay alive).
    for (uint32_t i = 0; i < failures; ++i) {
      cluster.CrashReplicaAt(15 - i, Millis(400));
    }
    core::ClusterResult r = cluster.Run(duration);
    phases->Merge(r.phase_latency);
    obs->Capture(cluster.obs());
    table.Row({system.label, bench::FmtInt(failures), bench::Fmt(pct * 100, 0),
               bench::Fmt(r.throughput_tps, 0),
               bench::Fmt(r.avg_latency_s, 2),
               bench::FmtInt(r.reconfigurations)});
  }
}

}  // namespace
}  // namespace thunderbolt

int main(int argc, char** argv) {
  using namespace thunderbolt;
  const bench::CostFooter cost_footer(argv[0]);
  const SimTime duration =
      bench::QuickMode(argc, argv) ? Seconds(2) : Seconds(5);
  workload::WorkloadOptions options;
  const std::string workload_name = bench::ClusterWorkloadFromFlags(
      argc, argv, &options, /*seed=*/102, {"cross_shard_ratio"});
  const bench::PlacementSelection placement =
      bench::PlacementFromFlags(argc, argv);
  const bench::StoreSelection store = bench::StoreFromFlags(argc, argv);
  // --arrival/--rate run the failure sweep open-loop: throughput under
  // crashes is then capped by offered load, and latency is arrival->commit.
  const bench::ServiceSelection service = bench::ServiceFromFlags(argc, argv);
  bench::ObsSelection obs = bench::ObsFromFlags(argc, argv);
  bench::Banner(
      "Figure 17", "replica failures (f = 1, 2) on 16 replicas",
      "Thunderbolt keeps committing with crashed replicas: throughput "
      "drops roughly in proportion to lost shards (paper: 78K/66K tps at "
      "P=0 for f=1/f=2 vs 100K failure-free; 17K/15K at P=100%) while "
      "latency stays stable thanks to DAG leader rotation");
  std::printf("workload: %s  placement: %s  store: %s\n",
              workload_name.c_str(), placement.policy.c_str(),
              store.name.c_str());
  if (service.config.enabled) {
    std::printf("open loop: arrival=%s rate=%.0f tps admission=%s\n",
                service.config.arrival.c_str(), service.config.rate_tps,
                service.config.admission.c_str());
  }
  bench::Table table({"system", "failed", "cross%", "tput(tps)",
                      "latency(s)", "reconfigs"});
  obs::LatencyBreakdown phases;
  const struct {
    bench::ClusterSystem system;
    uint32_t failures;
  } rows[] = {
      {{"Thunderbolt", core::ExecutionMode::kThunderbolt, "ce"}, 0},
      {{"Thunderbolt/1", core::ExecutionMode::kThunderbolt, "ce"}, 1},
      {{"Thunderbolt/2", core::ExecutionMode::kThunderbolt, "ce"}, 2},
      {{"Tusk", core::ExecutionMode::kTusk}, 0}};
  for (const auto& row : rows) {
    RunSweep(row.system, row.failures, workload_name, options, placement,
             store, service, &obs, duration, table, &phases);
  }
  bench::PhaseLatencyTable(phases);
  return bench::WriteTablesJsonIfRequested(argc, argv, "fig17") |
         obs.WriteIfRequested();
}
