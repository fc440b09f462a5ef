// Figure 16: average commit runtime per 100 committed leader rounds with
// K' = 300, on 8 replicas. Demonstrates that the system does not stall
// across non-blocking reconfigurations: per-round runtime stays flat.
// `--workload <name>` sweeps any registered workload.
#include "bench/bench_util.h"
#include "core/cluster.h"

int main(int argc, char** argv) {
  using namespace thunderbolt;
  const bench::CostFooter cost_footer(argv[0]);
  bench::AcceptOnlyFlags(argc, argv,
                         {bench::kQuickJsonFlags, bench::kClusterWorkloadFlags,
                          bench::kPlacementFlags, bench::kStoreFlags,
                          bench::kObsFlags});
  const SimTime duration =
      bench::QuickMode(argc, argv) ? Seconds(8) : Seconds(30);
  workload::WorkloadOptions options;
  const std::string workload_name =
      bench::ClusterWorkloadFromFlags(argc, argv, &options, /*seed=*/66);
  const bench::PlacementSelection placement =
      bench::PlacementFromFlags(argc, argv);
  const bench::StoreSelection store = bench::StoreFromFlags(argc, argv);
  bench::ObsSelection obs = bench::ObsFromFlags(argc, argv);
  bench::Banner(
      "Figure 16", "per-100-round commit runtime across reconfigurations",
      "runtime per round stays in a tight band (paper: 0.07-0.1 s) with no "
      "stall at reconfiguration boundaries (K'=300)");
  std::printf("workload: %s  placement: %s  store: %s\n",
              workload_name.c_str(), placement.policy.c_str(),
              store.name.c_str());

  core::ThunderboltConfig cfg;
  cfg.n = 8;
  cfg.batch_size = 500;
  cfg.reconfig_period_k_prime = 300;
  cfg.seed = 65;
  placement.ApplyTo(&cfg);
  store.ApplyTo(&cfg);
  obs.ApplyTo(&cfg);
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
  return bench::WriteTablesJsonIfRequested(argc, argv, "fig16") |
         obs.WriteIfRequested();
}
