// Figure 15: throughput & latency vs reconfiguration period K' on 8
// replicas. Small K' forces frequent non-blocking DAG switches; large K'
// amortizes the switch cost. `--workload <name>` sweeps any registered
// workload; `--placement directory` additionally exercises hot-key
// migration at every boundary (the migrations column counts re-homed
// accounts, and each move is emitted into the JSON "migrations" table).
#include "bench/bench_util.h"
#include "core/cluster.h"

int main(int argc, char** argv) {
  using namespace thunderbolt;
  const bench::CostFooter cost_footer(argv[0]);
  const SimTime duration =
      bench::QuickMode(argc, argv) ? Seconds(3) : Seconds(10);
  workload::WorkloadOptions options;
  const std::string workload_name =
      bench::ClusterWorkloadFromFlags(argc, argv, &options, /*seed=*/56);
  const bench::PlacementSelection placement =
      bench::PlacementFromFlags(argc, argv);
  const bench::StoreSelection store = bench::StoreFromFlags(argc, argv);
  bench::ObsSelection obs = bench::ObsFromFlags(argc, argv);
  bench::Banner(
      "Figure 15", "reconfiguration period K' sweep on 8 replicas",
      "throughput lower at K'=10 (frequent DAG transitions discard the "
      "two-round uncommitted tail) and stabilizes as K' grows past ~1000; "
      "average latency decreases slightly with larger K'");
  std::printf("workload: %s  placement: %s  store: %s\n",
              workload_name.c_str(), placement.policy.c_str(),
              store.name.c_str());
  bench::Table table({"K'", "tput(tps)", "latency(s)", "reconfigs",
                      "shift-blocks", "migrations"});
  std::vector<std::vector<std::string>> migration_rows;
  for (Round k_prime : {10ull, 100ull, 500ull, 1000ull, 5000ull}) {
    core::ThunderboltConfig cfg;
    cfg.n = 8;
    cfg.batch_size = 500;
    cfg.reconfig_period_k_prime = k_prime;
    cfg.seed = 55;
    placement.ApplyTo(&cfg);
    store.ApplyTo(&cfg);
    obs.ApplyTo(&cfg);
    core::Cluster cluster(cfg, workload_name, options);
    core::ClusterResult r = cluster.Run(duration);
    obs.Capture(cluster.obs());
    table.Row({bench::FmtInt(k_prime), bench::Fmt(r.throughput_tps, 0),
               bench::Fmt(r.avg_latency_s, 2),
               bench::FmtInt(r.reconfigurations),
               bench::FmtInt(r.shift_blocks), bench::FmtInt(r.migrations)});
    for (const placement::MigrationEvent& e : cluster.migration_events()) {
      migration_rows.push_back({bench::FmtInt(k_prime), bench::FmtInt(e.epoch),
                                e.account, bench::FmtInt(e.from),
                                bench::FmtInt(e.to),
                                bench::FmtInt(e.remote_accesses)});
    }
  }
  if (!migration_rows.empty()) {
    std::printf("\nHot-key migrations (directory placement):\n");
    bench::Table migrations({"K'", "epoch", "account", "from", "to",
                             "remote-accesses"},
                            "migrations");
    for (const auto& row : migration_rows) migrations.Row(row);
  }
  return bench::WriteTablesJsonIfRequested(argc, argv, "fig15") |
         obs.WriteIfRequested();
}
