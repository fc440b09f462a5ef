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
#include <cstdlib>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "ce/engine_registry.h"
#include "ce/executor_pool.h"
#include "contract/contract.h"
#include "workload/smallbank_workload.h"

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
  workload::SmallBankConfig wc;
  wc.num_accounts = 10000;
  wc.theta = 0.85;
  wc.read_ratio = read_ratio;
  wc.seed = 1234;
  workload::SmallBankWorkload w(wc);
  std::unique_ptr<storage::KVStore> store = store_sel.Create();
  w.InitStore(store.get());
  auto registry = contract::Registry::CreateDefault();

  std::unique_ptr<ce::ExecutorPool> pool = pool_sel.Create(executors);
  pool->SetObs(ce::PoolObsContext{obs->tracer(), &obs->metrics(), 0});
  SimTime total_time = 0;
  uint64_t total_txns = 0, total_aborts = 0;
  double latency_sum = 0;
  for (uint32_t run = 0; run < runs; ++run) {
    auto batch = w.MakeBatch(batch_size);
    std::unique_ptr<ce::BatchEngine> engine =
        ce::EngineRegistry::Global().Create(engine_name, store.get(),
                                            batch_size);
    auto r = pool->Run(*engine, *registry, batch);
    if (!r.ok()) {
      // The cell has no number without this batch: stop loudly.
      std::fprintf(stderr,
                   "fig11: %s batch %u executors %u Pr %.1f run %u failed: "
                   "%s\n",
                   engine_name.c_str(), batch_size, executors, read_ratio,
                   run, r.status().ToString().c_str());
      std::exit(1);
    }
    store->Write(engine->FinalWrites());
    total_time += r->duration;
    total_txns += batch_size;
    total_aborts += r->total_aborts;
    latency_sum += r->commit_latency_us.Mean();
  }
  Measurement m;
  m.tps = static_cast<double>(total_txns) / ToSeconds(total_time);
  m.latency_s = (latency_sum / runs) / 1e6;
  m.re_executions =
      static_cast<double>(total_aborts) / static_cast<double>(total_txns);
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
