// Ablation: rule-P4 immediate conversion vs section-5.4 Skip-block
// deferral for conflicting single-shard transactions. 8 replicas, varying
// cross-shard pressure; SmallBank by default, `--workload <name>` for any
// registered workload.
//
// Expectation: conversion keeps the pipeline busy (conflicting work moves
// to the OE path immediately); deferral preserves more preplay (higher
// single-shard share) at the cost of Skip rounds and added latency for the
// deferred transactions. Both are safe (no invalid blocks).
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
  const SimTime duration = flags.Has("quick") ? Seconds(2) : Seconds(4);
  workload::WorkloadOptions options;
  const std::string workload_name = bench::ClusterWorkloadFromFlags(
      flags, &options, /*seed=*/312, {"cross_shard_ratio"});
  core::ThunderboltConfig base = bench::ConfigFromFlags(flags, {kReplicas});
  bench::ObsSelection obs = bench::ObsFromFlags(flags, &base);
  bench::Banner(
      "Ablation", "P4 immediate conversion vs 5.4 Skip-block deferral",
      "conversion mode sustains throughput via the OE path; skip mode "
      "preserves a higher preplayed share but emits Skip blocks and "
      "defers conflicting work");
  std::printf("workload: %s  placement: %s  store: %s\n",
              workload_name.c_str(), base.placement.c_str(),
              base.store.c_str());
  bench::Table table({"mode", "cross%", "tput(tps)", "latency(s)",
                      "single", "cross", "converted", "skips"});
  for (bool use_skip : {false, true}) {
    for (double pct : {0.04, 0.2, 0.6}) {
      core::ThunderboltConfig cfg = base;
      cfg.n = kReplicas;
      cfg.batch_size = 500;
      cfg.use_skip_blocks = use_skip;
      cfg.seed = 311;
      options.cross_shard_ratio = pct;
      core::Cluster cluster(cfg, workload_name, options);
      core::ClusterResult r = cluster.Run(duration);
      obs.Capture(cluster.obs());
      table.Row({use_skip ? "skip-5.4" : "convert-P4",
                 bench::Fmt(pct * 100, 0), bench::Fmt(r.throughput_tps, 0),
                 bench::Fmt(r.avg_latency_s, 2),
                 bench::FmtInt(r.committed_single),
                 bench::FmtInt(r.committed_cross),
                 bench::FmtInt(r.conversions), bench::FmtInt(r.skip_blocks)});
    }
  }
  return bench::WriteTablesJsonIfRequested(flags, "ablation_skip") |
         obs.WriteIfRequested();
}
