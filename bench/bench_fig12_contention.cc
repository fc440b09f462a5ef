// Figure 12: Concurrent Executor under varying contention.
//
//   (a,b) theta sweep {0.75, 0.8, 0.85, 0.9} at Pr = 0.5
//   (c,d) Pr sweep {1, 0.8, 0.5, 0.1, 0} at theta = 0.85
//
// Engines: Thunderbolt CE, OCC, 2PL-No-Wait; batch sizes 300 and 500;
// 12 executors (the plateau point of Figure 11).
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
};

/// Sweep-wide accumulators: the per-phase latency decomposition and the
/// virtual clock the time-series windows ride (cells run back to back on
/// one timeline, sampled at each cell boundary).
struct SweepObs {
  obs::LatencyBreakdown phases;
  uint64_t clock_us = 0;
};

Measurement RunConfig(const std::string& engine_name, uint32_t batch_size,
                      double theta, double read_ratio, uint32_t runs,
                      const bench::StoreSelection& store_sel,
                      const bench::PoolSelection& pool_sel,
                      obs::Observability* obs, SweepObs* sweep) {
  workload::SmallBankConfig wc;
  wc.num_accounts = 10000;
  wc.theta = theta;
  wc.read_ratio = read_ratio;
  wc.seed = 4321;
  workload::SmallBankWorkload w(wc);
  std::unique_ptr<storage::KVStore> store = store_sel.Create();
  w.InitStore(store.get());
  auto registry = contract::Registry::CreateDefault();
  // 12 executors: the Figure 11 plateau point.
  std::unique_ptr<ce::ExecutorPool> pool = pool_sel.Create(12);
  pool->SetObs(ce::PoolObsContext{obs->tracer(), &obs->metrics(), 0});

  SimTime total_time = 0;
  uint64_t total_txns = 0;
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
                   "fig12: %s batch %u theta %.2f Pr %.1f run %u failed: "
                   "%s\n",
                   engine_name.c_str(), batch_size, theta, read_ratio, run,
                   r.status().ToString().c_str());
      std::exit(1);
    }
    store->Write(engine->FinalWrites());
    total_time += r->duration;
    total_txns += batch_size;
    latency_sum += r->commit_latency_us.Mean();
    sweep->phases.Merge(r->phases);
  }
  sweep->clock_us += total_time;
  obs->SampleWindow(sweep->clock_us);
  Measurement m;
  m.tps = static_cast<double>(total_txns) / ToSeconds(total_time);
  m.latency_s = (latency_sum / runs) / 1e6;
  return m;
}

void ThetaSweep(uint32_t runs, const bench::StoreSelection& store,
                const bench::PoolSelection& pool, obs::Observability* obs,
                SweepObs* sweep) {
  std::printf("\n--- (a,b) theta sweep, Pr = 0.5 ---\n");
  bench::Table table(
      {"engine", "batch", "theta", "tput(tps)", "latency(s)"},
      "theta_sweep");
  for (const bench::BatchEngineRow& engine : bench::kBatchEngines) {
    for (uint32_t batch : {300u, 500u}) {
      for (double theta : {0.75, 0.8, 0.85, 0.9}) {
        Measurement m =
            RunConfig(engine.engine, batch, theta, 0.5, runs, store, pool,
                      obs, sweep);
        table.Row({engine.label, bench::FmtInt(batch),
                   bench::Fmt(theta, 2), bench::Fmt(m.tps, 0),
                   bench::Fmt(m.latency_s, 4)});
      }
    }
  }
}

void ReadRatioSweep(uint32_t runs, const bench::StoreSelection& store,
                    const bench::PoolSelection& pool, obs::Observability* obs,
                    SweepObs* sweep) {
  std::printf("\n--- (c,d) Pr sweep, theta = 0.85 ---\n");
  bench::Table table({"engine", "batch", "Pr", "tput(tps)", "latency(s)"},
                     "read_ratio_sweep");
  for (const bench::BatchEngineRow& engine : bench::kBatchEngines) {
    for (uint32_t batch : {300u, 500u}) {
      for (double pr : {1.0, 0.8, 0.5, 0.1, 0.0}) {
        Measurement m =
            RunConfig(engine.engine, batch, 0.85, pr, runs, store, pool,
                      obs, sweep);
        table.Row({engine.label, bench::FmtInt(batch),
                   bench::Fmt(pr, 1), bench::Fmt(m.tps, 0),
                   bench::Fmt(m.latency_s, 4)});
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
      "Figure 12", "CE under varying contention (theta) and read ratio (Pr)",
      "comparable Thunderbolt/OCC at theta=0.75; OCC declines sharply by "
      "theta=0.9 while Thunderbolt stays ahead; at Pr=1 all engines "
      "converge (OCC slightly best); lower Pr hurts 2PL most and "
      "Thunderbolt beats OCC on write-heavy mixes");
  if (pool.name != "sim") {
    std::printf("pool: %s (wall-clock timings)\n", pool.name.c_str());
  }
  SweepObs sweep;
  ThetaSweep(runs, store, pool, obs.get(), &sweep);
  ReadRatioSweep(runs, store, pool, obs.get(), &sweep);
  bench::PhaseLatencyTable(sweep.phases);
  obs_sel.Capture(*obs);
  return bench::WriteTablesJsonIfRequested(argc, argv, "fig12") |
         obs_sel.WriteIfRequested();
}
