// Figure 12: Concurrent Executor under varying contention.
//
//   (a,b) theta sweep {0.75, 0.8, 0.85, 0.9} at Pr = 0.5
//   (c,d) Pr sweep {1, 0.8, 0.5, 0.1, 0} at theta = 0.85
//
// Engines: Thunderbolt CE, OCC, 2PL-No-Wait; batch sizes 300 and 500;
// 12 executors (the plateau point of Figure 11).
#include <cstdio>
#include <string>

#include "bench/bench_util.h"

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

/// One cell: `config.engine` at `config.batch_size`.
Measurement RunConfig(const core::ThunderboltConfig& config, double theta,
                      double read_ratio, uint32_t runs,
                      obs::Observability* obs, SweepObs* sweep) {
  workload::WorkloadOptions options;
  options.num_records = 10000;
  options.theta = theta;
  options.read_ratio = read_ratio;
  options.seed = 4321;
  char cell[128];
  std::snprintf(cell, sizeof(cell), "fig12: %s batch %u theta %.2f Pr %.1f",
                config.engine.c_str(), config.batch_size, theta, read_ratio);
  const bench::BatchCellSums sums =
      bench::RunBatchCell(config, options, runs, obs, cell);
  sweep->phases.Merge(sums.phases);
  sweep->clock_us += sums.duration;
  obs->SampleWindow(sweep->clock_us);
  Measurement m;
  m.tps = sums.tps();
  m.latency_s = sums.latency_s();
  return m;
}

void ThetaSweep(uint32_t runs, const core::ThunderboltConfig& base,
                obs::Observability* obs, SweepObs* sweep) {
  std::printf("\n--- (a,b) theta sweep, Pr = 0.5 ---\n");
  bench::Table table(
      {"engine", "batch", "theta", "tput(tps)", "latency(s)"},
      "theta_sweep");
  core::ThunderboltConfig config = base;
  for (const bench::BatchEngineRow& engine : bench::kBatchEngines) {
    config.engine = engine.engine;
    for (uint32_t batch : {300u, 500u}) {
      config.batch_size = batch;
      for (double theta : {0.75, 0.8, 0.85, 0.9}) {
        Measurement m = RunConfig(config, theta, 0.5, runs, obs, sweep);
        table.Row({engine.label, bench::FmtInt(batch),
                   bench::Fmt(theta, 2), bench::Fmt(m.tps, 0),
                   bench::Fmt(m.latency_s, 4)});
      }
    }
  }
}

void ReadRatioSweep(uint32_t runs, const core::ThunderboltConfig& base,
                    obs::Observability* obs, SweepObs* sweep) {
  std::printf("\n--- (c,d) Pr sweep, theta = 0.85 ---\n");
  bench::Table table({"engine", "batch", "Pr", "tput(tps)", "latency(s)"},
                     "read_ratio_sweep");
  core::ThunderboltConfig config = base;
  for (const bench::BatchEngineRow& engine : bench::kBatchEngines) {
    config.engine = engine.engine;
    for (uint32_t batch : {300u, 500u}) {
      config.batch_size = batch;
      for (double pr : {1.0, 0.8, 0.5, 0.1, 0.0}) {
        Measurement m = RunConfig(config, 0.85, pr, runs, obs, sweep);
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
  const bench::Flags flags = bench::AcceptOnlyFlags(
      argc, argv,
      {bench::kQuickJsonFlags, bench::kStoreFlags, bench::kPoolFlags,
       bench::kObsFlags});
  const uint32_t runs = flags.Has("quick") ? 4 : 20;
  core::ThunderboltConfig config =
      bench::ConfigFromFlags(flags, /*shard_counts=*/{});
  config.num_executors = 12;  // The Figure 11 plateau point.
  bench::ObsSelection obs_sel = bench::ObsFromFlags(flags, &config);
  // One bundle for the whole sweep: batch benches have no Cluster, so the
  // pools record into this standalone bundle directly.
  obs::Observability obs(config.obs);
  bench::Banner(
      "Figure 12", "CE under varying contention (theta) and read ratio (Pr)",
      "comparable Thunderbolt/OCC at theta=0.75; OCC declines sharply by "
      "theta=0.9 while Thunderbolt stays ahead; at Pr=1 all engines "
      "converge (OCC slightly best); lower Pr hurts 2PL most and "
      "Thunderbolt beats OCC on write-heavy mixes");
  if (config.pool != "sim") {
    std::printf("pool: %s (wall-clock timings)\n", config.pool.c_str());
  }
  SweepObs sweep;
  ThetaSweep(runs, config, &obs, &sweep);
  ReadRatioSweep(runs, config, &obs, &sweep);
  bench::PhaseLatencyTable(sweep.phases);
  obs_sel.Capture(obs);
  return bench::WriteTablesJsonIfRequested(flags, "fig12") |
         obs_sel.WriteIfRequested();
}
