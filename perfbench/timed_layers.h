// Outside-in wall-clock timers for the layers the cluster reaches through a
// registry. Both wrappers forward every call to the real implementation, so
// a cluster built on them produces byte-identical virtual outputs (run.py
// checks this through the fingerprint line); they only add a pair
// of steady_clock reads around the calls they time.
//
//   "timed:inner=<spec>"   StoreRegistry backend timing Get/GetOrDefault
//                          (one op each), Put (one op) and Write (one op per
//                          batch entry) of the wrapped store.
//   "timed.<workload>"     WorkloadRegistry entry timing Next, NextForShard,
//                          MakeBatch and MakeShardBatch (one unit per
//                          transaction produced).
//
// The simulator runs on one thread, so the clocks are plain counters.
//
// Each timed call pays for its two clock reads. MeasureSpanCost() gives that
// cost so callers can take it out: `inside_ns` per span from a layer clock,
// and `total_ns - inside_ns` per nested span from the self time of a caller
// that encloses timed calls.
#ifndef THUNDERBOLT_PERFBENCH_TIMED_LAYERS_H_
#define THUNDERBOLT_PERFBENCH_TIMED_LAYERS_H_

#include <chrono>
#include <cstdint>

namespace perfbench {

/// Accumulated wall time, work units and timed calls (spans) of one layer.
struct LayerClock {
  uint64_t ns = 0;
  uint64_t units = 0;
  uint64_t spans = 0;
  void Reset() { *this = LayerClock{}; }
};

/// Clocks fed by the registry wrappers.
LayerClock& StoreClock();
LayerClock& WorkloadClock();

/// Cost of one empty timed call: the part a layer clock records
/// (`inside_ns`) and the whole cost to the code around it (`total_ns`).
struct SpanCost {
  double inside_ns = 0;
  double total_ns = 0;
};

/// Times many empty spans and returns the median cost per span.
SpanCost MeasureSpanCost();

/// `clock.ns` without the clock reads its own spans recorded.
uint64_t NetNs(const LayerClock& clock, const SpanCost& cost);

/// Registers "timed" in storage::StoreRegistry::Global() and "timed.<name>"
/// for every workload already in workload::WorkloadRegistry::Global().
void RegisterTimedLayers();

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace perfbench

#endif  // THUNDERBOLT_PERFBENCH_TIMED_LAYERS_H_
