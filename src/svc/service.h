// The open-loop service front end: arrival processes feeding per-shard
// bounded admission queues.
//
// Closed-loop benches pull work ("generate batch -> execute"); the system
// never sees traffic it does not control. ServiceFrontEnd inverts that:
// an ArrivalProcess per shard generates client transactions on the
// deterministic sim clock, a token bucket and the AdmissionQueue's
// overload policy decide which of them the system accepts, and the
// proposer pipeline dequeues admitted work batch by batch. Each
// transaction's `submit_time` is stamped with its ARRIVAL time, so the
// existing queue_wait phase and commit-latency percentiles automatically
// become end-to-end (arrival -> commit) measurements; `admit_time`
// (stamped at dequeue) preserves the old admit -> commit view next to it.
//
// The front end owns no clock and schedules nothing itself: callers push
// time at it (the cluster from a self-rechaining sim event at
// NextArrivalTime(), batch drivers from their accumulated virtual clock),
// which keeps the class usable from both the discrete-event simulation
// and the batch bench drivers, and keeps every run byte-reproducible from
// the seed.
#ifndef THUNDERBOLT_SVC_SERVICE_H_
#define THUNDERBOLT_SVC_SERVICE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "svc/admission.h"
#include "svc/arrival.h"
#include "txn/transaction.h"

namespace thunderbolt::svc {

/// Service front-end knobs, threaded through ThunderboltConfig::service
/// and the benches' --arrival/--rate/--admission/--queue-depth flags.
struct ServiceConfig {
  /// Off by default: the cluster then runs closed-loop (proposers pull
  /// fresh batches from the workload), byte-identical to before.
  bool enabled = false;
  /// Arrival process, by ArrivalRegistry name ("poisson", "burst",
  /// "trace").
  std::string arrival = "poisson";
  /// Process-specific params (see svc/arrival.h header).
  std::string arrival_params;
  /// Aggregate offered load in transactions/second across all shards
  /// (each shard's stream runs at rate_tps / num_shards).
  double rate_tps = 20000;
  /// Overload policy name ("drop-tail", "shed-oldest", "codel").
  std::string admission = "drop-tail";
  /// Per-shard admission queue bound.
  uint32_t queue_depth = 1024;
  /// CoDel sojourn target (ignored by the other policies).
  SimTime codel_target = Millis(50);
  /// Token-bucket rate limiter ahead of the queues; <= 0 disables it.
  double limiter_rate_tps = 0;
  /// Bucket capacity in tokens; <= 0 derives a small default.
  double limiter_burst = 0;
};

class ServiceFrontEnd {
 public:
  /// Draws the next client transaction homed at a shard (the cluster
  /// passes workload::Workload::NextForShard).
  using TxnSource = std::function<txn::Transaction(ShardId)>;

  /// `metrics` may be null (no svc.* counters/gauges are published then).
  /// Aborts on an unknown arrival or admission name — front-end
  /// construction is configuration, mirroring the Cluster ctor.
  ServiceFrontEnd(const ServiceConfig& config, uint32_t num_shards,
                  uint64_t seed, TxnSource source,
                  obs::MetricsRegistry* metrics);

  ServiceFrontEnd(const ServiceFrontEnd&) = delete;
  ServiceFrontEnd& operator=(const ServiceFrontEnd&) = delete;

  /// Earliest pending arrival across all streams; kSimTimeNever when every
  /// stream is exhausted (trace replay past its schedule).
  SimTime NextArrivalTime() const;

  /// Generates and admits every arrival with time <= now, in global
  /// (time, shard) order — the deterministic merge of the per-stream
  /// schedules. Idempotent for a `now` in the past.
  void AdvanceTo(SimTime now);

  /// Pops up to `max` admitted transactions for `shard` at sim time `now`
  /// (codel sheds over-target entries first). Dequeued transactions keep
  /// their arrival `submit_time`; `admit_time` is stamped with `now`.
  std::vector<txn::Transaction> Dequeue(ShardId shard, SimTime now,
                                        size_t max);

  /// Monotone accounting; see svc/admission.h for the terminology.
  /// Invariants: offered == admitted + rejected, and
  /// admitted == shed + dequeued + (current queue depths).
  struct Counters {
    uint64_t offered = 0;
    uint64_t admitted = 0;
    uint64_t rejected = 0;
    uint64_t shed = 0;
    uint64_t dequeued = 0;
  };
  const Counters& counters() const { return counters_; }

  size_t queue_depth(ShardId shard) const {
    return streams_[shard].queue->depth();
  }
  uint64_t total_queue_depth() const;
  uint32_t num_shards() const { return static_cast<uint32_t>(streams_.size()); }
  const ServiceConfig& config() const { return config_; }

 private:
  struct Stream {
    std::unique_ptr<ArrivalProcess> process;
    std::unique_ptr<AdmissionQueue> queue;
    Rng rng;
    SimTime next_arrival = kSimTimeNever;
    /// svc.queue_depth{shard=k}; null without a registry.
    obs::Gauge* depth_gauge = nullptr;
  };

  void Admit(Stream& stream, ShardId shard, SimTime when);

  ServiceConfig config_;
  TxnSource source_;
  TokenBucket limiter_;
  std::vector<Stream> streams_;
  Counters counters_;
  // Registry mirrors of `counters_`, resolved once (null without a
  // registry). Ticking them at arrival/dequeue sim time lands each delta
  // in the right time-series window.
  obs::Counter* offered_ = nullptr;
  obs::Counter* admitted_ = nullptr;
  obs::Counter* rejected_ = nullptr;
  obs::Counter* shed_ = nullptr;
  obs::Counter* dequeued_ = nullptr;
};

}  // namespace thunderbolt::svc

#endif  // THUNDERBOLT_SVC_SERVICE_H_
