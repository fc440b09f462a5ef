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
  constexpr uint32_t kReplicas = 8;  // And so shards.
  const bench::CostFooter cost_footer(argv[0]);
  const bench::Flags flags = bench::AcceptOnlyFlags(
      argc, argv,
      {bench::kQuickJsonFlags, bench::kClusterWorkloadFlags,
       bench::kPlacementFlags, bench::kStoreFlags, bench::kObsFlags});
  const SimTime duration = flags.Has("quick") ? Seconds(3) : Seconds(10);
  workload::WorkloadOptions options;
  const std::string workload_name =
      bench::ClusterWorkloadFromFlags(flags, &options, /*seed=*/56);
  core::ThunderboltConfig base = bench::ConfigFromFlags(flags, {kReplicas});
  bench::ObsSelection obs = bench::ObsFromFlags(flags, &base);
  bench::Banner(
      "Figure 15", "reconfiguration period K' sweep on 8 replicas",
      "throughput lower at K'=10 (frequent DAG transitions discard the "
      "two-round uncommitted tail) and stabilizes as K' grows past ~1000; "
      "average latency decreases slightly with larger K'");
  std::printf("workload: %s  placement: %s  store: %s\n",
              workload_name.c_str(), base.placement.c_str(),
              base.store.c_str());
  bench::Table table({"K'", "tput(tps)", "latency(s)", "reconfigs",
                      "shift-blocks", "migrations"});
  std::vector<std::vector<std::string>> migration_rows;
  for (Round k_prime : {10ull, 100ull, 500ull, 1000ull, 5000ull}) {
    core::ThunderboltConfig cfg = base;
    cfg.n = kReplicas;
    cfg.batch_size = 500;
    cfg.reconfig_period_k_prime = k_prime;
    cfg.seed = 55;
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
  return bench::WriteTablesJsonIfRequested(flags, "fig15") |
         obs.WriteIfRequested();
}
