// Figure 16: average commit runtime per 100 committed leader rounds with
// K' = 300, on 8 replicas. Demonstrates that the system does not stall
// across non-blocking reconfigurations: per-round runtime stays flat.
// `--workload <name>` sweeps any registered workload.
#include "bench/bench_util.h"
#include "core/cluster.h"

int main(int argc, char** argv) {
  using namespace thunderbolt;
  constexpr uint32_t kReplicas = 8;  // And so shards.
  const bench::CostFooter cost_footer(argv[0]);
  const bench::Flags flags = bench::AcceptOnlyFlags(
      argc, argv,
      {bench::kQuickJsonFlags, bench::kClusterWorkloadFlags,
       bench::kPlacementFlags, bench::kStoreFlags, bench::kObsFlags});
  const SimTime duration = flags.Has("quick") ? Seconds(8) : Seconds(30);
  workload::WorkloadOptions options;
  const std::string workload_name =
      bench::ClusterWorkloadFromFlags(flags, &options, /*seed=*/66);
  core::ThunderboltConfig cfg = bench::ConfigFromFlags(flags, {kReplicas});
  bench::ObsSelection obs = bench::ObsFromFlags(flags, &cfg);
  bench::Banner(
      "Figure 16", "per-100-round commit runtime across reconfigurations",
      "runtime per round stays in a tight band (paper: 0.07-0.1 s) with no "
      "stall at reconfiguration boundaries (K'=300)");
  std::printf("workload: %s  placement: %s  store: %s\n",
              workload_name.c_str(), cfg.placement.c_str(),
              cfg.store.c_str());

  cfg.n = kReplicas;
  cfg.batch_size = 500;
  cfg.reconfig_period_k_prime = 300;
  cfg.seed = 65;
  core::Cluster cluster(cfg, workload_name, options);
  core::ClusterResult r = cluster.Run(duration);
  obs.Capture(cluster.obs());

  bench::Table table({"commits", "avg-round-time(s)"});
  const auto& times = r.commit_times;
  const size_t window = 100;
  for (size_t start = 0; start + window <= times.size(); start += window) {
    double span = ToSeconds(times[start + window - 1].second) -
                  ToSeconds(times[start].second);
    table.Row({bench::FmtInt(start + window),
               bench::Fmt(span / static_cast<double>(window - 1), 4)});
  }
  if (times.size() < window) {
    std::printf("(fewer than %zu commits: %zu; run longer without --quick)\n",
                window, times.size());
  }
  std::printf("\nReconfigurations during the run: %llu\n",
              static_cast<unsigned long long>(r.reconfigurations));
  return bench::WriteTablesJsonIfRequested(flags, "fig16") |
         obs.WriteIfRequested();
}
