// Windowed watermark checks over the time-series windows: is the system
// making commit progress, is the abort rate spiking, is the admission
// queue growing without bound? Each check that trips emits one kHealth
// tracer instant and bumps health.* registry metrics — the hook the
// later admission-control / overload work consumes to tell graceful
// degradation from collapse.
#ifndef THUNDERBOLT_OBS_HEALTH_H_
#define THUNDERBOLT_OBS_HEALTH_H_

#include <cstdint>

#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace thunderbolt::obs {

/// Which watermark tripped; the kHealth event's `a` argument.
enum class HealthAlert : uint8_t {
  kCommitStall = 1,     // Too few commits for too many consecutive windows.
  kAbortRateSpike = 2,  // aborts / (commits + aborts) above the watermark.
  kQueueGrowth = 3,     // Queue depth far above its trailing average.
};

struct HealthThresholds {
  /// A window with fewer commits than this counts toward a stall.
  uint64_t min_commits_per_window = 1;
  /// Consecutive sub-watermark windows before kCommitStall fires.
  uint32_t stall_windows = 2;
  /// kAbortRateSpike fires above this abort fraction (needs >= 1 abort).
  double abort_rate_spike = 0.5;
  /// kQueueGrowth fires when depth exceeds growth * trailing average
  /// (needs at least one prior window and a nonzero average).
  double queue_depth_growth = 2.0;
};

/// Stateful monitor fed one closed TimeSeriesWindow at a time (same
/// cadence as the recorder: the Observability bundle calls OnWindow from
/// SampleWindow). Commits/aborts/queue depth are read from the window by
/// conventional metric names: cluster.commits_* when the cluster path is
/// live, pool.<pool>.txns/restarts otherwise, pool.<pool>.queue_depth
/// gauges for depth. Single-caller; not thread-safe by itself.
class HealthMonitor {
 public:
  HealthMonitor(MetricsRegistry* metrics, Tracer* tracer,
                HealthThresholds thresholds = {});

  void OnWindow(const TimeSeriesWindow& window);

  uint64_t alerts() const { return alerts_; }
  const HealthThresholds& thresholds() const { return thresholds_; }

 private:
  void Emit(HealthAlert alert, uint64_t end_us);

  MetricsRegistry& metrics_;
  Tracer* tracer_;
  HealthThresholds thresholds_;

  uint64_t window_index_ = 0;
  uint32_t stalled_windows_ = 0;
  double queue_depth_sum_ = 0;  // Trailing average numerator.
  uint64_t queue_depth_samples_ = 0;
  uint64_t alerts_ = 0;
};

}  // namespace thunderbolt::obs

#endif  // THUNDERBOLT_OBS_HEALTH_H_
