// Fixed-interval windowed sampling of a MetricsRegistry: the
// tps-over-time / abort-rate-over-time machinery.
//
// A TimeSeriesRecorder owns no clock. Callers push time at it:
//   - The sharded cluster schedules Advance() on the deterministic sim
//     clock at every window boundary, so per-window counter deltas are
//     exact and the export is byte-identical per seed (determinism_test).
//   - Batch bench drivers call Advance() with accumulated virtual
//     execution time (sim pool) or wall-clock microseconds (thread pool)
//     after each cell; a multi-window gap attributes the whole delta to
//     the latest closed window, so sample at least once per window when
//     per-window accuracy matters.
// Flush() closes the trailing partial window at end of run, which is what
// makes "sum of per-window deltas == final counter totals" hold exactly.
#ifndef THUNDERBOLT_OBS_TIMESERIES_H_
#define THUNDERBOLT_OBS_TIMESERIES_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace thunderbolt::obs {

/// One closed sampling window.
struct TimeSeriesWindow {
  uint64_t start_us = 0;
  uint64_t end_us = 0;
  /// Counter increments observed during the window (zero deltas omitted).
  std::map<std::string, uint64_t> counter_deltas;
  /// Gauge values at window close.
  std::map<std::string, double> gauges;

  /// Cumulative histogram stats at window close.
  struct HistStats {
    uint64_t count = 0;
    double mean = 0;
    double p50 = 0;
    double p99 = 0;
    double max = 0;
  };
  std::map<std::string, HistStats> histograms;

  /// This window's delta for `name`, 0 if the counter didn't move.
  uint64_t Delta(const std::string& name) const {
    auto it = counter_deltas.find(name);
    return it == counter_deltas.end() ? 0 : it->second;
  }
};

/// Samples a registry into fixed-width windows. Thread-safe: Advance /
/// Flush / readers all lock, and the registry snapshots it takes are the
/// registry's own thread-safe views.
class TimeSeriesRecorder {
 public:
  /// `registry` must outlive the recorder. `window_us` of 0 is clamped
  /// to 1.
  TimeSeriesRecorder(const MetricsRegistry* registry, uint64_t window_us);

  uint64_t window_us() const { return window_us_; }

  /// Closes every window whose boundary is <= now_us and returns copies
  /// of them, in order. The counter delta since the previous sample lands
  /// in the LAST window this call closes; earlier gap windows close empty.
  /// Monotonic: a now_us in the past is a no-op beyond remembering
  /// max(now).
  std::vector<TimeSeriesWindow> Advance(uint64_t now_us);

  /// Closes the in-progress partial window (end = the max now_us ever
  /// seen) if it is non-empty in time or counters, and returns a copy of
  /// it (none otherwise). Call once at end of run, before exporting.
  std::vector<TimeSeriesWindow> Flush();

  size_t window_count() const;
  std::vector<TimeSeriesWindow> Snapshot() const;

  /// Sum of `name`'s deltas across all closed windows (== the counter's
  /// value at the last close).
  uint64_t CounterTotal(const std::string& name) const;

  /// Deterministic JSON: {"window_us":W,"windows":[{"start_us":..,
  /// "end_us":..,"counters":{..},"gauges":{..},"histograms":{..}},...],
  /// "totals":{counter:value,...}} with all keys sorted. "totals" are the
  /// counter values as of the last closed window, so for every counter
  /// the per-window deltas sum to its "totals" entry (the schema sanity
  /// script in CI checks exactly this).
  std::string ToJson() const;

 private:
  /// Closes one window [window_start_, end_us] with the given deltas;
  /// mu_ held.
  void CloseWindowLocked(uint64_t end_us,
                         std::map<std::string, uint64_t>&& deltas);
  /// Counter deltas vs last_counters_, updating it; mu_ held.
  std::map<std::string, uint64_t> TakeDeltasLocked();

  const MetricsRegistry* registry_;
  const uint64_t window_us_;

  mutable std::mutex mu_;
  uint64_t window_start_ = 0;  // Open window's start.
  uint64_t last_now_ = 0;      // Max now_us ever passed to Advance.
  std::map<std::string, uint64_t> last_counters_;  // At last close.
  std::vector<TimeSeriesWindow> windows_;
};

}  // namespace thunderbolt::obs

#endif  // THUNDERBOLT_OBS_TIMESERIES_H_
