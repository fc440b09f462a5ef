// Figure 11: Concurrent Executor evaluation vs OCC and 2PL-No-Wait across
// executor counts.
//
//   (a) read-write balanced workload (Pr = 0.5)
//   (b) update-only workload (Pr = 0)
//
// For each engine x batch size (300/500) x executor count {1,4,8,12,16}:
// throughput (tps), mean latency (s), and mean re-executions per txn over
// the SmallBank workload with 10,000 accounts at theta = 0.85 — the
// paper's CE experiment setup (section 11).
#include <cstdio>
#include <string>

#include "bench/bench_util.h"

namespace thunderbolt {
namespace {

struct Measurement {
  double tps = 0;
  double latency_s = 0;
  double re_executions = 0;
};

/// One cell: `config.engine` at `config.batch_size` on
/// `config.num_executors` executors.
Measurement RunConfig(const core::ThunderboltConfig& config,
                      double read_ratio, uint32_t runs,
                      obs::Observability* obs) {
  workload::WorkloadOptions options;
  options.num_records = 10000;
  options.theta = 0.85;
  options.read_ratio = read_ratio;
  options.seed = 1234;
  char cell[128];
  std::snprintf(cell, sizeof(cell), "fig11: %s batch %u executors %u Pr %.1f",
                config.engine.c_str(), config.batch_size,
                config.num_executors, read_ratio);
  const bench::BatchCellSums sums =
      bench::RunBatchCell(config, options, runs, obs, cell);
  Measurement m;
  m.tps = sums.tps();
  m.latency_s = sums.latency_s();
  m.re_executions =
      static_cast<double>(sums.aborts) / static_cast<double>(sums.txns);
  return m;
}

void RunWorkload(const char* title, double read_ratio, uint32_t runs,
                 const core::ThunderboltConfig& base,
                 obs::Observability* obs) {
  std::printf("\n--- %s ---\n", title);
  bench::Table table({"engine", "batch", "executors", "tput(tps)",
                      "latency(s)", "re-exec/txn"},
                     title);
  core::ThunderboltConfig config = base;
  for (const bench::BatchEngineRow& engine : bench::kBatchEngines) {
    config.engine = engine.engine;
    for (uint32_t batch : {300u, 500u}) {
      config.batch_size = batch;
      for (uint32_t executors : {1u, 4u, 8u, 12u, 16u}) {
        config.num_executors = executors;
        Measurement m = RunConfig(config, read_ratio, runs, obs);
        table.Row({engine.label, bench::FmtInt(batch),
                   bench::FmtInt(executors), bench::Fmt(m.tps, 0),
                   bench::Fmt(m.latency_s, 4), bench::Fmt(m.re_executions, 3)});
      }
    }
  }
}

}  // namespace
}  // namespace thunderbolt

int main(int argc, char** argv) {
  using namespace thunderbolt;
  const bench::CostFooter cost_footer(argv[0]);
  const bench::Flags flags = bench::AcceptOnlyFlags(
      argc, argv,
      {bench::kQuickJsonFlags, bench::kStoreFlags, bench::kPoolFlags,
       bench::kObsFlags});
  const uint32_t runs = flags.Has("quick") ? 4 : 20;
  core::ThunderboltConfig config =
      bench::ConfigFromFlags(flags, /*shard_counts=*/{});
  bench::ObsSelection obs_sel = bench::ObsFromFlags(flags, &config);
  // One bundle for the whole sweep: batch benches have no Cluster, so the
  // pools record into this standalone bundle directly.
  obs::Observability obs(config.obs);
  bench::Banner(
      "Figure 11", "CE vs OCC vs 2PL-No-Wait across executor counts",
      "throughput rises then plateaus (~12 executors for Thunderbolt/OCC); "
      "2PL-No-Wait degrades beyond 8 executors; Thunderbolt has the fewest "
      "re-executions (~50% of OCC, ~10% of 2PL at b500)");
  if (config.pool != "sim") {
    std::printf("pool: %s (wall-clock timings)\n", config.pool.c_str());
  }
  RunWorkload("(a) read-write balanced, Pr = 0.5", 0.5, runs, config, &obs);
  RunWorkload("(b) update-only, Pr = 0", 0.0, runs, config, &obs);
  obs_sel.Capture(obs);
  return bench::WriteTablesJsonIfRequested(flags, "fig11") |
         obs_sel.WriteIfRequested();
}
