// End-to-end observability: a traced sim-pool batch run and a traced
// cluster run must produce the spans/metrics the obs ISSUE promises —
// one lifecycle span per committed transaction, abort-reason breakdowns
// under contention, and cluster-level commit-path events.
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ce/engine_registry.h"
#include "ce/executor_pool.h"
#include "contract/contract.h"
#include "core/cluster.h"
#include "obs/obs.h"
#include "storage/kv_store.h"
#include "workload/smallbank_workload.h"

namespace thunderbolt {
namespace {

size_t CountKind(const std::vector<obs::TraceEvent>& events,
                 obs::EventKind kind) {
  size_t n = 0;
  for (const obs::TraceEvent& e : events) {
    if (e.kind == kind) ++n;
  }
  return n;
}

/// One high-contention SmallBank batch through the sim pool with `engine`.
std::vector<obs::TraceEvent> RunTracedBatch(obs::Observability* obs,
                                            bool use_occ,
                                            uint32_t batch_size) {
  workload::WorkloadOptions wc;
  wc.num_records = 40;  // Tiny account pool -> heavy conflicts.
  wc.theta = 0.95;
  wc.seed = 7;
  workload::SmallBankWorkload w(wc);
  storage::MemKVStore store;
  w.InitStore(&store);
  auto registry = contract::Registry::CreateDefault();
  auto batch = w.MakeBatch(batch_size);

  std::unique_ptr<ce::ExecutorPool> pool =
      ce::CreateExecutorPool("sim", 8, ce::ExecutionCostModel{});
  pool->SetObs(ce::PoolObsContext{obs->tracer(), &obs->metrics(), 0});
  std::unique_ptr<ce::BatchEngine> engine = ce::EngineRegistry::Global().Create(
      use_occ ? "occ" : "ce", &store, batch_size);
  auto r = pool->Run(*engine, *registry, batch);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r->order.size(), batch_size);  // Every txn committed.
  return obs->ring()->Snapshot();
}

TEST(ObsPoolIntegrationTest, OneSpanPerCommittedTxnAndAbortReasons) {
  obs::ObsOptions options;
  options.trace = true;
  obs::Observability obs(options);
  const uint32_t batch_size = 200;
  std::vector<obs::TraceEvent> events =
      RunTracedBatch(&obs, /*use_occ=*/true, batch_size);

  // Exactly one lifecycle span and one commit instant per transaction,
  // plus one batch span.
  EXPECT_EQ(CountKind(events, obs::EventKind::kTxnSpan), batch_size);
  EXPECT_EQ(CountKind(events, obs::EventKind::kTxnCommit), batch_size);
  EXPECT_EQ(CountKind(events, obs::EventKind::kBatchSpan), 1u);

  // OCC at theta=0.95 on 40 accounts must restart transactions, and every
  // restart event names its cause.
  const size_t restarts = CountKind(events, obs::EventKind::kTxnRestart);
  EXPECT_GT(restarts, 0u);
  for (const obs::TraceEvent& e : events) {
    if (e.kind == obs::EventKind::kTxnRestart) {
      EXPECT_EQ(e.reason, obs::AbortReason::kValidationFailure);
    }
  }

  // The same breakdown lands in the metrics registry.
  const obs::Counter* reason_counter =
      obs.metrics().FindCounter("pool.sim.restart_reason.validation_failure");
  ASSERT_NE(reason_counter, nullptr);
  EXPECT_EQ(reason_counter->value(), restarts);
  const obs::Counter* txns = obs.metrics().FindCounter("pool.sim.txns");
  ASSERT_NE(txns, nullptr);
  EXPECT_EQ(txns->value(), batch_size);
  const obs::HistogramMetric* latency =
      obs.metrics().FindHistogram("pool.sim.commit_latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->Snapshot().Count(), batch_size);
}

TEST(ObsPoolIntegrationTest, CcBreaksAbortsDownByConflictKind) {
  obs::ObsOptions options;
  options.trace = true;
  obs::Observability obs(options);
  std::vector<obs::TraceEvent> events =
      RunTracedBatch(&obs, /*use_occ=*/false, 200);
  // The CC reports kReadWriteConflict / kCascadeInvalidation, never OCC's
  // validation failure.
  for (const obs::TraceEvent& e : events) {
    if (e.kind == obs::EventKind::kTxnRestart) {
      EXPECT_TRUE(e.reason == obs::AbortReason::kReadWriteConflict ||
                  e.reason == obs::AbortReason::kCascadeInvalidation)
          << static_cast<int>(e.reason);
    }
  }
  EXPECT_EQ(obs.metrics().FindCounter(
                "pool.sim.restart_reason.validation_failure"),
            nullptr);
}

TEST(ObsClusterIntegrationTest, TracedClusterEmitsCommitPathEvents) {
  core::ThunderboltConfig cfg;
  cfg.n = 4;
  cfg.batch_size = 100;
  cfg.seed = 21;
  cfg.obs.trace = true;
  cfg.obs.trace_capacity = 1u << 18;  // Large enough: no wraparound below.
  workload::WorkloadOptions wo;
  wo.num_records = 300;
  wo.theta = 0.9;
  wo.read_ratio = 0.5;
  wo.cross_shard_ratio = 0.1;
  wo.seed = 22;
  core::Cluster cluster(cfg, "smallbank", wo);
  core::ClusterResult r = cluster.Run(Seconds(2));
  ASSERT_GT(r.committed_single, 0u);
  ASSERT_GT(r.committed_cross, 0u);

  ASSERT_NE(cluster.obs().ring(), nullptr);
  EXPECT_EQ(cluster.obs().ring()->dropped(), 0u);
  std::vector<obs::TraceEvent> events = cluster.obs().ring()->Snapshot();

  // Every committed single-shard transaction was preplayed under a traced
  // pool before its block committed, so the ring holds at least one
  // lifecycle span per committed single-shard transaction.
  EXPECT_GE(CountKind(events, obs::EventKind::kTxnSpan), r.committed_single);
  // The observer records the commit path: validation replays and
  // cross-shard execution spans.
  EXPECT_GT(CountKind(events, obs::EventKind::kValidateSpan), 0u);
  EXPECT_GT(CountKind(events, obs::EventKind::kCrossShardSpan), 0u);

  // ClusterResult's abort-reason breakdown matches the trace's restart
  // events (the sim pool records one kTxnRestart per counted abort). The
  // breakdown spans every replica's pool, as preplay_aborts does.
  uint64_t reason_total = 0;
  for (uint64_t count : r.abort_reasons) reason_total += count;
  EXPECT_GT(reason_total, 0u);
  EXPECT_EQ(reason_total, r.preplay_aborts);
  EXPECT_EQ(CountKind(events, obs::EventKind::kTxnRestart), reason_total);

  // p999 is wired and ordered with the other percentiles.
  EXPECT_GE(r.p999_latency_s, r.p99_latency_s);

  // Cluster-level counters were surfaced into the registry.
  const obs::Counter* committed =
      cluster.obs().metrics().FindCounter("cluster.commits_single");
  ASSERT_NE(committed, nullptr);
  EXPECT_EQ(committed->value(), r.committed_single);
  const obs::Counter* gets =
      cluster.obs().metrics().FindCounter("store.gets");
  ASSERT_NE(gets, nullptr);
  EXPECT_GT(gets->value(), 0u);
}

// The time-series / causality / phase-decomposition tentpole, end to end:
// a traced cluster run with windowed sampling must attribute every commit
// to exactly one window (deltas sum to the run totals), link a cross-shard
// transaction's hold spans across shards through flow events, break the
// totals down per shard via labeled counters, and populate both the pool-
// side and consensus-side phases of ClusterResult::phase_latency.
TEST(ObsClusterIntegrationTest, TimeSeriesWindowsSumToRunTotals) {
  core::ThunderboltConfig cfg;
  cfg.n = 4;
  cfg.batch_size = 100;
  cfg.seed = 31;
  cfg.obs.trace = true;
  cfg.obs.trace_capacity = 1u << 18;
  cfg.obs.timeseries = true;
  cfg.obs.timeseries_window_us = 100000;  // 100ms windows over a 2s run.
  workload::WorkloadOptions wo;
  wo.num_records = 300;
  wo.theta = 0.9;
  wo.read_ratio = 0.5;
  wo.cross_shard_ratio = 0.1;
  wo.seed = 32;
  core::Cluster cluster(cfg, "smallbank", wo);
  core::ClusterResult r = cluster.Run(Seconds(2));
  ASSERT_GT(r.committed_single, 0u);
  ASSERT_GT(r.committed_cross, 0u);

  // Close the trailing partial window; the per-window cluster.commits_*
  // deltas must then sum exactly to the run's completion-time totals —
  // the invariant scripts/check_timeseries.py re-checks on CI artifacts.
  cluster.obs().FlushTimeSeries();
  obs::TimeSeriesRecorder* ts = cluster.obs().timeseries();
  ASSERT_NE(ts, nullptr);
  EXPECT_GE(ts->window_count(), 10u);
  EXPECT_EQ(ts->CounterTotal("cluster.commits_single"), r.committed_single);
  EXPECT_EQ(ts->CounterTotal("cluster.commits_cross"), r.committed_cross);
  // Commits spread across windows: a throughput-over-time series, not one
  // end-of-run lump.
  size_t windows_with_commits = 0;
  for (const obs::TimeSeriesWindow& w : ts->Snapshot()) {
    if (w.Delta("cluster.commits_single") > 0) ++windows_with_commits;
  }
  EXPECT_GT(windows_with_commits, 1u);

  // The labeled per-shard counters partition the same totals.
  uint64_t shard_single = 0;
  uint64_t shard_cross = 0;
  for (uint32_t shard = 0; shard < cfg.n; ++shard) {
    const obs::Counter* single = cluster.obs().metrics().FindCounter(
        "cluster.shard.commits", {{"shard", shard}});
    if (single != nullptr) shard_single += single->value();
    const obs::Counter* cross = cluster.obs().metrics().FindCounter(
        "cluster.shard.commits_cross", {{"shard", shard}});
    if (cross != nullptr) shard_cross += cross->value();
  }
  EXPECT_EQ(shard_single, r.committed_single);
  EXPECT_EQ(shard_cross, r.committed_cross);

  // Cross-shard causality: at least one transaction's hold spans appear on
  // two or more shards (pids) under one trace id, linked by a flow chain
  // that starts and ends.
  ASSERT_NE(cluster.obs().ring(), nullptr);
  std::map<uint64_t, std::set<uint32_t>> shards_by_trace;
  size_t flow_starts = 0;
  size_t flow_ends = 0;
  for (const obs::TraceEvent& e : cluster.obs().ring()->Snapshot()) {
    if (e.kind != obs::EventKind::kCrossHoldSpan) continue;
    EXPECT_NE(e.trace_id, 0u);
    if (e.flow == obs::FlowPhase::kNone) continue;
    shards_by_trace[e.trace_id].insert(e.pid);
    if (e.flow == obs::FlowPhase::kStart) ++flow_starts;
    if (e.flow == obs::FlowPhase::kEnd) ++flow_ends;
  }
  bool linked_across_shards = false;
  for (const auto& [trace_id, shards] : shards_by_trace) {
    if (shards.size() >= 2) linked_across_shards = true;
  }
  EXPECT_TRUE(linked_across_shards);
  EXPECT_GT(flow_starts, 0u);
  EXPECT_EQ(flow_starts, flow_ends);  // Every chain terminates.

  // Per-phase latency decomposition: the pools filled the preplay-side
  // phases, the observer's commit path the consensus-side ones.
  EXPECT_GT(r.phase_latency[obs::Phase::kQueueWait].Count(), 0u);
  EXPECT_GT(r.phase_latency[obs::Phase::kExecute].Count(), 0u);
  EXPECT_GT(r.phase_latency[obs::Phase::kValidate].Count(), 0u);
  EXPECT_GT(r.phase_latency[obs::Phase::kCommitApply].Count(), 0u);
  EXPECT_GT(r.phase_latency[obs::Phase::kCrossShardHold].Count(), 0u);
}

// Each cluster outcome is counted once, in the registry, at the virtual
// time it happens. So when a run is split into a warm-up Run and a measured
// Run, the warm-up's outcomes land in the windows inside the warm-up, and
// the commit-latency histogram has grown to the warm-up's sample count by
// the window that closes at its end — not at some later Run edge.
TEST(ObsClusterIntegrationTest, SplitRunCountsOutcomesInTheirOwnWindows) {
  core::ThunderboltConfig cfg;
  cfg.n = 4;
  cfg.batch_size = 100;
  cfg.obs.timeseries = true;
  cfg.obs.timeseries_window_us = 100000;
  workload::WorkloadOptions wo;
  wo.num_records = 500;
  wo.seed = 1234;
  wo.cross_shard_ratio = 0.1;
  core::Cluster cluster(cfg, "smallbank", wo);
  const core::ClusterResult warm = cluster.Run(Millis(500));
  const core::ClusterResult measured = cluster.Run(Millis(1500));
  ASSERT_GT(warm.conversions, 0u);
  ASSERT_GT(warm.preplay_aborts, 0u);
  cluster.obs().FlushTimeSeries();

  auto latency_count = [](const obs::TimeSeriesWindow& w) -> uint64_t {
    auto it = w.histograms.find("cluster.commit_latency_us");
    return it == w.histograms.end() ? 0 : it->second.count;
  };
  uint64_t warm_conversions = 0;
  uint64_t warm_aborts = 0;
  uint64_t latency_at_warm_end = 0;
  const std::vector<obs::TimeSeriesWindow> windows =
      cluster.obs().timeseries()->Snapshot();
  ASSERT_FALSE(windows.empty());
  for (const obs::TimeSeriesWindow& w : windows) {
    if (w.end_us > Millis(500)) continue;
    warm_conversions += w.Delta("cluster.conversions");
    warm_aborts += w.Delta("pool.sim.restarts");
    if (w.end_us == Millis(500)) latency_at_warm_end = latency_count(w);
  }
  EXPECT_EQ(warm_conversions, warm.conversions);
  EXPECT_EQ(warm_aborts, warm.preplay_aborts);
  EXPECT_EQ(latency_at_warm_end, warm.latency_samples);
  EXPECT_EQ(latency_count(windows.back()),
            warm.latency_samples + measured.latency_samples);
}

TEST(ObsClusterIntegrationTest, TracingOffByDefaultAndNullSafe) {
  core::ThunderboltConfig cfg;
  cfg.n = 4;
  cfg.batch_size = 100;
  cfg.seed = 23;
  workload::WorkloadOptions wo;
  wo.num_records = 300;
  wo.seed = 24;
  core::Cluster cluster(cfg, "smallbank", wo);
  core::ClusterResult r = cluster.Run(Seconds(1));
  EXPECT_GT(r.committed_single, 0u);
  // No ring is allocated; the tracer is the shared no-op sink.
  EXPECT_EQ(cluster.obs().ring(), nullptr);
  EXPECT_FALSE(cluster.obs().tracer()->enabled());
  // Metrics still work without tracing.
  EXPECT_NE(cluster.obs().metrics().FindCounter("cluster.commits_single"),
            nullptr);
}

}  // namespace
}  // namespace thunderbolt
