#include "obs/health.h"

namespace thunderbolt::obs {

namespace {

/// Commits this window: the cluster counters when the cluster commit path
/// is live, the pool throughput counters otherwise.
uint64_t CommitsIn(const TimeSeriesWindow& w) {
  const uint64_t cluster =
      w.Delta("cluster.commits_single") + w.Delta("cluster.commits_cross");
  if (cluster > 0 || w.counter_deltas.count("cluster.commits_single") > 0 ||
      w.counter_deltas.count("cluster.commits_cross") > 0) {
    return cluster;
  }
  return w.Delta("pool.sim.txns") + w.Delta("pool.thread.txns");
}

uint64_t AbortsIn(const TimeSeriesWindow& w) {
  return w.Delta("pool.sim.restarts") + w.Delta("pool.thread.restarts");
}

double QueueDepthIn(const TimeSeriesWindow& w) {
  double depth = 0;
  for (const char* name : {"pool.sim.queue_depth", "pool.thread.queue_depth"}) {
    auto it = w.gauges.find(name);
    if (it != w.gauges.end() && it->second > depth) depth = it->second;
  }
  // Admission-queue depths from the service front end, one labeled gauge
  // per shard (svc.queue_depth{shard=k}); gauges is an ordered map, so the
  // labeled family is a contiguous prefix range. Deepest queue wins: one
  // saturated shard is queue growth even if the others drain fine.
  static constexpr char kSvcDepth[] = "svc.queue_depth";
  static constexpr size_t kSvcDepthLen = sizeof(kSvcDepth) - 1;
  for (auto it = w.gauges.lower_bound(kSvcDepth);
       it != w.gauges.end() &&
       it->first.compare(0, kSvcDepthLen, kSvcDepth) == 0;
       ++it) {
    if (it->second > depth) depth = it->second;
  }
  return depth;
}

}  // namespace

HealthMonitor::HealthMonitor(MetricsRegistry* metrics, Tracer* tracer,
                             HealthThresholds thresholds)
    : metrics_(*metrics),
      tracer_(tracer ? tracer : NullTracerInstance()),
      thresholds_(thresholds) {}

void HealthMonitor::Emit(HealthAlert alert, uint64_t end_us) {
  ++alerts_;
  metrics_.GetCounter("health.alerts").Inc();
  if (tracer_->enabled()) {
    TraceEvent e;
    e.kind = EventKind::kHealth;
    e.ts_us = end_us;
    e.a = static_cast<uint64_t>(alert);
    e.b = window_index_;
    tracer_->Record(e);
  }
}

void HealthMonitor::OnWindow(const TimeSeriesWindow& window) {
  const uint64_t commits = CommitsIn(window);
  const uint64_t aborts = AbortsIn(window);
  const double depth = QueueDepthIn(window);

  // Commit-progress stall: fires once per run of consecutive sub-watermark
  // windows, when the run reaches the configured length.
  if (commits < thresholds_.min_commits_per_window) {
    ++stalled_windows_;
    if (stalled_windows_ == thresholds_.stall_windows) {
      Emit(HealthAlert::kCommitStall, window.end_us);
    }
  } else {
    stalled_windows_ = 0;
  }
  metrics_.GetGauge("health.commit_stalled")
      .Set(stalled_windows_ >= thresholds_.stall_windows ? 1.0 : 0.0);

  // Abort-rate spike.
  const double rate =
      commits + aborts > 0
          ? static_cast<double>(aborts) / static_cast<double>(commits + aborts)
          : 0.0;
  metrics_.GetGauge("health.abort_rate").Set(rate);
  if (aborts > 0 && rate > thresholds_.abort_rate_spike) {
    Emit(HealthAlert::kAbortRateSpike, window.end_us);
  }

  // Queue-depth growth vs the trailing average of previous windows.
  if (queue_depth_samples_ > 0) {
    const double avg =
        queue_depth_sum_ / static_cast<double>(queue_depth_samples_);
    metrics_.GetGauge("health.queue_depth_trend")
        .Set(avg > 0 ? depth / avg : 0.0);
    if (avg > 0 && depth > thresholds_.queue_depth_growth * avg) {
      Emit(HealthAlert::kQueueGrowth, window.end_us);
    }
  }
  queue_depth_sum_ += depth;
  ++queue_depth_samples_;
  ++window_index_;
}

}  // namespace thunderbolt::obs
