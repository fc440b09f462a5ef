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
#include <memory>
#include <string>

#include "bench/bench_util.h"

namespace thunderbolt {
namespace {

struct Measurement {
  double tps = 0;
  double latency_s = 0;
  double re_executions = 0;
};

Measurement RunConfig(const std::string& engine_name, uint32_t executors,
                      uint32_t batch_size, double read_ratio, uint32_t runs,
                      const bench::StoreSelection& store_sel,
                      const bench::PoolSelection& pool_sel,
                      obs::Observability* obs) {
  workload::WorkloadOptions options;
  options.num_records = 10000;
  options.theta = 0.85;
  options.read_ratio = read_ratio;
  options.seed = 1234;
  char cell[128];
  std::snprintf(cell, sizeof(cell), "fig11: %s batch %u executors %u Pr %.1f",
                engine_name.c_str(), batch_size, executors, read_ratio);
  const bench::BatchCellSums sums =
      bench::RunBatchCell(options, engine_name, executors, batch_size, runs,
                          store_sel, pool_sel, obs, cell);
  Measurement m;
  m.tps = sums.tps();
  m.latency_s = sums.latency_s();
  m.re_executions =
      static_cast<double>(sums.aborts) / static_cast<double>(sums.txns);
  return m;
}

void RunWorkload(const char* title, double read_ratio, uint32_t runs,
                 const bench::StoreSelection& store_sel,
                 const bench::PoolSelection& pool_sel,
                 obs::Observability* obs) {
  std::printf("\n--- %s ---\n", title);
  bench::Table table({"engine", "batch", "executors", "tput(tps)",
                      "latency(s)", "re-exec/txn"},
                     title);
  for (const bench::BatchEngineRow& engine : bench::kBatchEngines) {
    for (uint32_t batch : {300u, 500u}) {
      for (uint32_t executors : {1u, 4u, 8u, 12u, 16u}) {
        Measurement m = RunConfig(engine.engine, executors, batch,
                                  read_ratio, runs, store_sel, pool_sel, obs);
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
  bench::AcceptOnlyFlags(argc, argv,
                         {bench::kQuickJsonFlags, bench::kStoreFlags,
                          bench::kPoolFlags, bench::kObsFlags});
  const uint32_t runs = bench::QuickMode(argc, argv) ? 4 : 20;
  const bench::StoreSelection store = bench::StoreFromFlags(argc, argv);
  const bench::PoolSelection pool = bench::PoolFromFlags(argc, argv);
  bench::ObsSelection obs_sel = bench::ObsFromFlags(argc, argv);
  // One bundle for the whole sweep: batch benches have no Cluster, so the
  // pools record into this standalone bundle directly.
  std::unique_ptr<obs::Observability> obs = obs_sel.MakeBundle();
  bench::Banner(
      "Figure 11", "CE vs OCC vs 2PL-No-Wait across executor counts",
      "throughput rises then plateaus (~12 executors for Thunderbolt/OCC); "
      "2PL-No-Wait degrades beyond 8 executors; Thunderbolt has the fewest "
      "re-executions (~50% of OCC, ~10% of 2PL at b500)");
  if (pool.name != "sim") {
    std::printf("pool: %s (wall-clock timings)\n", pool.name.c_str());
  }
  RunWorkload("(a) read-write balanced, Pr = 0.5", 0.5, runs, store, pool,
              obs.get());
  RunWorkload("(b) update-only, Pr = 0", 0.0, runs, store, pool, obs.get());
  obs_sel.Capture(*obs);
  return bench::WriteTablesJsonIfRequested(argc, argv, "fig11") |
         obs_sel.WriteIfRequested();
}
