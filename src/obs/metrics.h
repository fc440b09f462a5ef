// String-keyed metrics registry: counters, gauges and histograms,
// snapshotting to JSON.
//
// Thread-safety follows the idioms PR 6 established for the executor pools
// (see common/histogram.h and ce/batch_engine.h):
//   - Counter / Gauge are single atomics; Inc/Add/Set/value are safe from
//     any thread, lock-free.
//   - HistogramMetric guards its Histogram with a mutex; hot paths should
//     keep one Histogram per worker and Merge() it in at quiescence rather
//     than calling Observe per sample from many threads.
//   - The registry maps are mutex-guarded; Get* returns a reference that
//     stays valid for the registry's lifetime (entries are never removed),
//     so callers resolve a metric once and then touch only the atomic.
// ToJson() emits keys in sorted order with fixed formatting, so the same
// metric values always serialize to the same bytes (determinism_test
// asserts this for sim-pool cluster runs).
#ifndef THUNDERBOLT_OBS_METRICS_H_
#define THUNDERBOLT_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/histogram.h"

namespace thunderbolt::obs {

namespace detail {
/// Fixed, locale-independent double formatting ("%.6g") shared by every
/// obs JSON emitter so equal values always serialize to equal bytes.
std::string FormatDouble(double v);
/// Appends `s` as a quoted JSON string with the control/quote escapes.
void AppendQuoted(std::string& out, const std::string& s);
}  // namespace detail

/// One metric dimension. The value constructor accepts integers so call
/// sites can write GetCounter("cluster.shard.commits", {{"shard", i}}).
struct Label {
  std::string key;
  std::string value;

  Label(std::string k, std::string v) : key(std::move(k)), value(std::move(v)) {}
  Label(std::string k, const char* v) : key(std::move(k)), value(v) {}
  template <typename T, std::enable_if_t<std::is_integral_v<T>, int> = 0>
  Label(std::string k, T v) : key(std::move(k)), value(std::to_string(v)) {}
};

using Labels = std::vector<Label>;

/// Canonical label-set encoding: `name{k1=v1,k2=v2}` with keys sorted, so
/// the same label set always resolves to the same registry entry and
/// labeled metrics stay in ToJson()'s sorted deterministic order. Keys and
/// values must not contain '{', '}', ',' or '=' (metric names are
/// code-controlled, not user input).
std::string LabeledName(const std::string& name, Labels labels);

/// Monotonically increasing integer metric.
class Counter {
 public:
  void Inc(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins floating-point metric (also supports Add for
/// accumulate-style use).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Mutex-guarded Histogram. Observe per sample is fine from one thread;
/// multi-threaded producers should batch into a local Histogram and
/// Merge() it in once quiescent (the thread pool's per-worker idiom).
class HistogramMetric {
 public:
  void Observe(double v) {
    std::lock_guard<std::mutex> lk(mu_);
    hist_.Add(v);
  }
  void Merge(const Histogram& other) {
    std::lock_guard<std::mutex> lk(mu_);
    hist_.Merge(other);
  }
  /// Copy of the underlying histogram (consistent point-in-time view).
  Histogram Snapshot() const {
    std::lock_guard<std::mutex> lk(mu_);
    return hist_;
  }
  /// The samples observed after the first `skip`, in insertion order: the
  /// window a reader holding a sample cursor takes without copying the
  /// whole history.
  Histogram Since(size_t skip) const {
    std::lock_guard<std::mutex> lk(mu_);
    Histogram out;
    const std::vector<double>& samples = hist_.samples();
    for (size_t i = skip; i < samples.size(); ++i) out.Add(samples[i]);
    return out;
  }

 private:
  mutable std::mutex mu_;
  Histogram hist_;
};

/// The registry. Metric objects live as long as the registry; lookups are
/// by exact name. Names follow "subsystem.metric" convention, e.g.
/// "pool.restarts", "store.gets", "cluster.commits_single".
class MetricsRegistry {
 public:
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  HistogramMetric& GetHistogram(const std::string& name);

  /// Labeled (dimensional) variants: resolve `name` + sorted `labels` to
  /// one entry via LabeledName(), e.g. GetCounter("cluster.shard.commits",
  /// {{"shard", 2}}) -> "cluster.shard.commits{shard=2}".
  Counter& GetCounter(const std::string& name, const Labels& labels) {
    return GetCounter(LabeledName(name, labels));
  }
  Gauge& GetGauge(const std::string& name, const Labels& labels) {
    return GetGauge(LabeledName(name, labels));
  }
  HistogramMetric& GetHistogram(const std::string& name,
                                const Labels& labels) {
    return GetHistogram(LabeledName(name, labels));
  }

  /// Non-creating lookups: nullptr when the metric was never registered.
  /// Readers (window-delta accounting, tests) use these so probing for a
  /// metric that never fired does not materialize a zero entry in ToJson().
  const Counter* FindCounter(const std::string& name) const;
  const Gauge* FindGauge(const std::string& name) const;
  const HistogramMetric* FindHistogram(const std::string& name) const;
  const Counter* FindCounter(const std::string& name,
                             const Labels& labels) const {
    return FindCounter(LabeledName(name, labels));
  }
  const Gauge* FindGauge(const std::string& name, const Labels& labels) const {
    return FindGauge(LabeledName(name, labels));
  }
  const HistogramMetric* FindHistogram(const std::string& name,
                                       const Labels& labels) const {
    return FindHistogram(LabeledName(name, labels));
  }

  /// Point-in-time snapshots of every registered metric, sorted by name.
  /// The TimeSeriesRecorder samples these at window boundaries; values are
  /// relaxed atomic reads, so a snapshot taken while writers run is
  /// per-metric (not cross-metric) consistent — exact under the sim pool,
  /// approximate-by-design under real threads.
  std::map<std::string, uint64_t> CounterValues() const;
  std::map<std::string, double> GaugeValues() const;
  std::map<std::string, Histogram> HistogramSnapshots() const;

  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,mean,min,
  /// p50,p99,p999,max}, ...}} with keys sorted. Deterministic for equal
  /// metric values. An empty histogram serializes as {"count": 0} with the
  /// stats fields omitted — 0.0 percentiles would be indistinguishable
  /// from a genuinely instant run.
  std::string ToJson() const;

  /// Writes ToJson() to `path`. Returns false on IO failure.
  bool WriteJson(const std::string& path) const;

 private:
  mutable std::mutex mu_;  // Guards the maps, not the metric values.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramMetric>> histograms_;
};

}  // namespace thunderbolt::obs

#endif  // THUNDERBOLT_OBS_METRICS_H_
