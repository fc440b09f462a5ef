// Figure 14: throughput & latency vs fraction of cross-shard transactions
// (P%) on 16 replicas, for Thunderbolt, Thunderbolt-OCC and Tusk.
// `--workload ycsb|tpcc_lite` re-runs the sweep on any registered workload
// (each honors cross_shard_ratio through its own cross-shard generator).
// `--placement locality|directory|range` swaps the account -> shard
// policy: the crossfrac column (committed cross-shard fraction) is the
// direct read-out of how much cross-shard traffic a policy avoids at the
// same requested cross_shard_ratio.
#include "bench/bench_util.h"
#include "core/cluster.h"

namespace thunderbolt {
namespace {

/// Replicas, and so shards, in every cell.
constexpr uint32_t kReplicas = 16;

void RunSweep(const bench::ClusterSystem& system,
              const std::string& workload_name,
              workload::WorkloadOptions options,
              const core::ThunderboltConfig& base, bench::ObsSelection* obs,
              SimTime duration, bench::Table& table) {
  for (double pct : {0.0, 0.04, 0.08, 0.20, 0.60, 1.0}) {
    core::ThunderboltConfig cfg = base;
    cfg.n = kReplicas;
    system.ApplyTo(&cfg);
    cfg.batch_size = 500;
    cfg.seed = 90;
    options.cross_shard_ratio = pct;
    core::Cluster cluster(cfg, workload_name, options);
    core::ClusterResult r = cluster.Run(duration);
    obs->Capture(cluster.obs());
    const uint64_t committed = r.committed_single + r.committed_cross;
    const double cross_frac =
        committed == 0
            ? 0
            : static_cast<double>(r.committed_cross) /
                  static_cast<double>(committed);
    table.Row({system.label, bench::Fmt(pct * 100, 0),
               bench::Fmt(r.throughput_tps, 0), bench::Fmt(r.avg_latency_s, 2),
               bench::FmtInt(r.committed_single),
               bench::FmtInt(r.committed_cross), bench::Fmt(cross_frac, 3),
               bench::FmtInt(r.conversions), bench::FmtInt(r.skip_blocks)});
  }
}

}  // namespace
}  // namespace thunderbolt

int main(int argc, char** argv) {
  using namespace thunderbolt;
  const bench::CostFooter cost_footer(argv[0]);
  const bench::Flags flags = bench::AcceptOnlyFlags(
      argc, argv,
      {bench::kQuickJsonFlags, bench::kClusterWorkloadFlags,
       bench::kPlacementFlags, bench::kStoreFlags, bench::kObsFlags});
  const SimTime duration = flags.Has("quick") ? Seconds(2) : Seconds(5);
  workload::WorkloadOptions options;
  const std::string workload_name = bench::ClusterWorkloadFromFlags(
      flags, &options, /*seed=*/91, {"cross_shard_ratio"});
  core::ThunderboltConfig base = bench::ConfigFromFlags(flags, {kReplicas});
  bench::ObsSelection obs = bench::ObsFromFlags(flags, &base);
  bench::Banner(
      "Figure 14", "cross-shard transaction ratio sweep on 16 replicas",
      "both Thunderbolt variants decline as P grows; at P=8% Thunderbolt "
      "sustains ~4x Thunderbolt-OCC; at P=100% Thunderbolt still beats "
      "Tusk (~19K vs ~10K tps in the paper) thanks to SID-parallel OE "
      "execution; Thunderbolt latency roughly half of Thunderbolt-OCC "
      "under high contention");
  std::printf("workload: %s  placement: %s  store: %s\n",
              workload_name.c_str(), base.placement.c_str(),
              base.store.c_str());
  bench::Table table({"system", "cross%", "tput(tps)", "latency(s)",
                      "single", "cross", "crossfrac", "converted", "skips"});
  const bench::ClusterSystem systems[] = {
      {"Thunderbolt", core::ExecutionMode::kThunderbolt, "ce"},
      {"Thunderbolt-OCC", core::ExecutionMode::kThunderbolt, "occ"},
      {"Tusk", core::ExecutionMode::kTusk}};
  for (const bench::ClusterSystem& system : systems) {
    RunSweep(system, workload_name, options, base, &obs, duration, table);
  }
  return bench::WriteTablesJsonIfRequested(flags, "fig14") |
         obs.WriteIfRequested();
}
