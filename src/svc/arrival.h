// Open-loop arrival processes: the client side of the service front end.
//
// An ArrivalProcess answers one question — "given `now`, when does this
// stream's next transaction arrive?" — on the deterministic sim clock,
// drawing all randomness from a caller-owned seeded Rng so the same seed
// always produces the same arrival schedule (determinism_test pins
// open-loop cluster runs to the same byte-identical bar as closed-loop
// ones). Processes register by name in ArrivalRegistry
// (common/registry.h):
//
//   "poisson"  memoryless arrivals at the configured mean rate — the
//              classic open-loop load model.
//   "burst"    on/off modulated Poisson (flash crowd): a high-rate burst
//              phase alternating with a quiet phase, with the long-run
//              average pinned to the configured rate.
//              Params: on_ms, off_ms (phase lengths; defaults 200/800),
//              mult (burst-to-quiet rate ratio; default 8).
//   "trace"    replay of a recorded schedule.
//              Params: times=t1;t2;... (arrival offsets in microseconds,
//              assigned round-robin across streams) or file=<path> (one
//              "<t_us> [stream]" line per arrival; lines without a stream
//              column round-robin); loop_us=<period> repeats the schedule
//              with that period (0 = play once, then the stream is
//              exhausted).
//
// One process instance feeds one stream (one shard's admission queue);
// the per-stream rate is the aggregate rate divided by the stream count,
// so shards load evenly and each stream's RNG draws stay independent of
// every other stream's.
#ifndef THUNDERBOLT_SVC_ARRIVAL_H_
#define THUNDERBOLT_SVC_ARRIVAL_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/registry.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"

namespace thunderbolt::svc {

/// Options every arrival factory receives (the shared-struct idiom of
/// WorkloadOptions / PlacementOptions).
struct ArrivalOptions {
  /// Mean arrivals per second for THIS stream (the front end divides the
  /// aggregate offered rate by the stream count before constructing).
  double rate_tps = 1000;
  /// Process-specific "key=value[,key=value...]" knobs (see file header).
  /// Factories abort on unknown keys or malformed values — arrival specs
  /// are configuration, and a typo must not silently bench a default.
  std::string params;
  /// Which stream (shard) this process feeds, and how many exist: trace
  /// replay partitions its schedule across streams with these.
  uint32_t stream = 0;
  uint32_t num_streams = 1;
};

/// One stream's arrival schedule generator. Implementations keep only
/// deterministic state (phase walks, trace cursors); all randomness comes
/// from the Rng the caller passes in, which the caller seeds per stream.
class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;

  /// Registry name ("poisson", "burst", "trace").
  virtual std::string name() const = 0;

  /// Absolute sim time of the stream's next arrival, strictly after
  /// `now`; kSimTimeNever once the process is exhausted (only trace
  /// replay without loop_us ever exhausts).
  virtual SimTime NextArrival(SimTime now, Rng& rng) = 0;
};

/// Name -> factory registry over ArrivalOptions (common/registry.h),
/// preloaded with the built-ins ("poisson", "burst", "trace"). Factories
/// abort on malformed params (see ArrivalOptions::params);
/// CheckArrivalParams finds them without aborting.
class ArrivalRegistry
    : public FactoryRegistry<ArrivalProcess, const ArrivalOptions&> {
 public:
  /// The process-wide registry, preloaded with the built-ins.
  static ArrivalRegistry& Global();
};

/// Checks `options.params` for the built-in process `name` without
/// building it: OK, or InvalidArgument with the reason. The built-in
/// factories parse by the same rules and abort where this returns an error
/// (a trace file is read to check it). Any other name passes: its own
/// factory checks.
Status CheckArrivalParams(const std::string& name,
                          const ArrivalOptions& options);

}  // namespace thunderbolt::svc

#endif  // THUNDERBOLT_SVC_ARRIVAL_H_
