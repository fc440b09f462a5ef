// Figure 13: system scalability — Thunderbolt vs Thunderbolt-OCC vs Tusk
// on 8..64 replicas, LAN and WAN, batch 500, 16 executors + 16 validators
// per replica. Defaults to the paper's SmallBank setup (Pr = 0.5, 1000
// accounts, theta = 0.85); `--workload ycsb|tpcc_lite` (plus optional
// `--params k=v,...`) re-runs the sweep on any registered workload, so
// scalability is measured as workload x engine x cluster-size.
//
// Also prints the paper's headline: Thunderbolt's speedup over serial
// Tusk execution at the largest scale (paper: ~50x at 64 replicas).
#include "bench/bench_util.h"
#include "core/cluster.h"

namespace thunderbolt {
namespace {

struct RunOut {
  double tps = 0;
  double latency_s = 0;
};

RunOut RunOne(const bench::ClusterSystem& system, uint32_t n, bool wan,
              const std::string& workload_name,
              const workload::WorkloadOptions& options,
              const bench::PlacementSelection& placement,
              const bench::StoreSelection& store, bench::ObsSelection* obs,
              SimTime warmup, SimTime duration) {
  core::ThunderboltConfig cfg;
  cfg.n = n;
  system.ApplyTo(&cfg);
  cfg.batch_size = 500;
  cfg.num_executors = 16;
  cfg.num_validators = 16;
  cfg.latency = wan ? net::LatencyModel::Wan() : net::LatencyModel::Lan();
  cfg.seed = 77;
  placement.ApplyTo(&cfg);
  store.ApplyTo(&cfg);
  obs->ApplyTo(&cfg);

  core::Cluster cluster(cfg, workload_name, options);
  cluster.Run(warmup);  // Excluded: pipeline fill / first commits.
  core::ClusterResult r = cluster.Run(duration);
  obs->Capture(cluster.obs());
  return RunOut{r.throughput_tps, r.avg_latency_s};
}

}  // namespace
}  // namespace thunderbolt

int main(int argc, char** argv) {
  using namespace thunderbolt;
  const bench::CostFooter cost_footer(argv[0]);
  const bool quick = bench::QuickMode(argc, argv);
  workload::WorkloadOptions options;
  const std::string workload_name =
      bench::ClusterWorkloadFromFlags(argc, argv, &options, /*seed=*/78);
  const bench::PlacementSelection placement =
      bench::PlacementFromFlags(argc, argv);
  const bench::StoreSelection store = bench::StoreFromFlags(argc, argv);
  bench::ObsSelection obs = bench::ObsFromFlags(argc, argv);
  bench::Banner(
      "Figure 13", "throughput & latency vs replica count (LAN and WAN)",
      "Thunderbolt scales with replicas and beats Tusk by ~50x at 64 "
      "replicas; Thunderbolt-OCC tracks Thunderbolt but lags at scale; "
      "Tusk throughput stays flat (~11K tps) with latency growing to "
      "~100 s; WAN shows the same ordering with higher latencies");
  std::printf("workload: %s  placement: %s  store: %s\n",
              workload_name.c_str(), placement.policy.c_str(),
              store.name.c_str());

  const bench::ClusterSystem systems[] = {
      {"Thunderbolt", core::ExecutionMode::kThunderbolt, "ce"},
      {"Thunderbolt-OCC", core::ExecutionMode::kThunderbolt, "occ"},
      {"Tusk", core::ExecutionMode::kTusk}};

  double tb64 = 0, tusk64 = 0;
  for (bool wan : {false, true}) {
    std::printf("\n--- %s ---\n", wan ? "WAN" : "LAN");
    bench::Table table(
        {"system", "replicas", "tput(tps)", "latency(s)"});
    for (const bench::ClusterSystem& system : systems) {
      for (uint32_t n : {8u, 16u, 32u, 64u}) {
        // Large simulations are costly in real time; shrink the virtual
        // measurement window with scale (steady state is reached after
        // the warm-up window, which is excluded from the measurement).
        SimTime warmup = wan ? Seconds(2) : Seconds(1);
        SimTime duration = quick ? Seconds(n >= 64 ? 2 : 3)
                                 : Seconds(n >= 32 ? 3 : 5);
        RunOut out = RunOne(system, n, wan, workload_name, options,
                            placement, store, &obs, warmup, duration);
        table.Row({system.label, bench::FmtInt(n), bench::Fmt(out.tps, 0),
                   bench::Fmt(out.latency_s, 2)});
        if (!wan && n == 64) {
          if (&system == &systems[0]) tb64 = out.tps;  // Thunderbolt.
          if (system.mode == core::ExecutionMode::kTusk) tusk64 = out.tps;
        }
      }
    }
  }
  if (tusk64 > 0) {
    std::printf(
        "\nHeadline: Thunderbolt over serial Tusk at 64 replicas (LAN): "
        "%.1fx (paper: ~50x)\n",
        tb64 / tusk64);
  }
  return bench::WriteTablesJsonIfRequested(argc, argv, "fig13") |
         obs.WriteIfRequested();
}
